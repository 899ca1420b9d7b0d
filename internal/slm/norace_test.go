//go:build !race

package slm

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
