//go:build race

package server

// raceEnabled: see race_off_test.go.
const raceEnabled = true
