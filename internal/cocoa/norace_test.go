//go:build !race

package cocoa

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
