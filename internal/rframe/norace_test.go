//go:build !race

package rframe

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
