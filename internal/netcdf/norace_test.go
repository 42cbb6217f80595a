//go:build !race

package netcdf

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
