//go:build !race

package catalog

// raceEnabled reports whether the race detector instruments this build;
// the single-goroutine oversized-record test is skipped under it (its
// shadow memory would multiply a 64 MiB record's footprint past 1 GB).
const raceEnabled = false
