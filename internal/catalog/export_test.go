package catalog

// Hooks for the external test package (codec_wrangled_test.go).
var DecodeLine = decodeLine

func KernelDeclines() int64 { return kernelDeclines.Load() }
