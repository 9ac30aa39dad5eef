package cocoa

import (
	"os"
	"os/exec"
	"runtime/debug"
	"testing"
)

// manyWindowsChild names the environment variable under which the test
// binary runs TestManyWindowsFitSmallStack's child half.
const manyWindowsChild = "COCOA_MANY_WINDOWS_CHILD"

// A run arms all of its beacon windows before it starts, so the arming must
// not grow the stack with the window count: a stack overflow is a fatal
// error, not a panic, and would take down every run in the process. The
// child process runs 20,000 windows under an 8 MB stack cap, kept out of
// this test process.
func TestManyWindowsFitSmallStack(t *testing.T) {
	if os.Getenv(manyWindowsChild) == "1" {
		debug.SetMaxStack(8 << 20)
		cfg := DefaultConfig()
		cfg.NumRobots = 4
		cfg.NumEquipped = 2
		cfg.BeaconPeriodS = 0.01
		cfg.TransmitPeriodS = 0.005
		cfg.DurationS = 200
		cfg.GridCellM = 20 // cheap belief updates: the windows are the load
		cfg.Calibration.Samples = 60000
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Parallel()
	cmd := exec.Command(os.Args[0], "-test.run=^TestManyWindowsFitSmallStack$")
	cmd.Env = append(os.Environ(), manyWindowsChild+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("20,000-window run under an 8 MB stack: %v\n%.2000s", err, out)
	}
}
