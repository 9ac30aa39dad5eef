package cocoa

import (
	"context"
	"reflect"
	"testing"

	"cocoa/internal/faults"
)

// Intra-run parallelism must be invisible: per-robot localizer state is
// disjoint and each robot's beacon queue is applied FIFO by one goroutine,
// so a run's Result — every sample, counter, and energy figure — must be
// byte-identical however many update workers (the goroutines a beacon
// flush applies on) the CPU budget grants or WithFlushWorkers pins.

func parallelCases() map[string]Config {
	cases := map[string]Config{}

	cases["combined"] = testConfig()

	rf := testConfig()
	rf.Mode = ModeRFOnly
	cases["rf-only"] = rf

	sec := testConfig()
	sec.SecondaryBeacons = true
	sec.TerrainAmplitude = 1.5
	sec.ClockDriftSigmaS = 0.2
	cases["secondary+terrain+drift"] = sec

	flt := testConfig()
	flt.Faults.GE = faults.Bursty(0.3, 4)
	flt.Faults.CrashFraction = 0.2
	flt.Faults.CrashMeanDownS = 40
	cases["faults"] = flt

	mcl := testConfig()
	mcl.Localizer = LocalizerParticle
	mcl.Particles = 300
	cases["particle"] = mcl

	return cases
}

func TestFlushWorkerCountsByteIdentical(t *testing.T) {
	for name, cfg := range parallelCases() {
		t.Run(name, func(t *testing.T) {
			var ref *Result
			for _, workers := range []int{1, 3, 8, 0} { // serial, fixed, budget
				res, err := RunContext(WithFlushWorkers(context.Background(), workers), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(ref, res) {
					t.Errorf("%d flush workers diverge from the serial run", workers)
					if ref.MeanError() != res.MeanError() {
						t.Errorf("  mean error %v vs %v", ref.MeanError(), res.MeanError())
					}
					if ref.Fixes != res.Fixes {
						t.Errorf("  fixes %d vs %d", ref.Fixes, res.Fixes)
					}
				}
			}
		})
	}
}

// The queue must be empty at every localizer readout: a run that ends
// mid-window (beacons queued, no endWindow) still applies them in finish.
func TestPendingBeaconsFlushedAtFinish(t *testing.T) {
	cfg := testConfig()
	// End the run one second into a transmit window.
	cfg.DurationS = cfg.BeaconPeriodS*4 + 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BeaconsApplied == 0 {
		t.Fatal("no beacons applied")
	}
}
