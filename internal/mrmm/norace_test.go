//go:build !race

package mrmm

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
