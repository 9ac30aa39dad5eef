//go:build race

package cocoa

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own, so allocation guards skip under it.
const raceEnabled = true
