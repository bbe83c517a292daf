//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (instrumentation
// adds allocations that testing.AllocsPerRun cannot see past).
const raceEnabled = false
