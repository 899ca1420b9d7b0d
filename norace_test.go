//go:build !race

package unisem

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
