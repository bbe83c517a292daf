//go:build race

package catalog

// raceEnabled: see race_off_test.go.
const raceEnabled = true
