package cocoa

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"cocoa/internal/faults"
)

// scratchVariants is the configuration matrix the byte-identity suite runs:
// every localizer backend plus the modes whose state differs structurally
// (odometry-only allocates no grids at all, faults arm extra streams).
// "grid-eager" is the base config run on the eager grid statistics.
func scratchVariants() map[string]Config {
	base := testConfig()
	base.DurationS = 150

	ekf := base
	ekf.Localizer = LocalizerEKF

	mcl := base
	mcl.Localizer = LocalizerParticle
	mcl.Particles = 400

	odo := base
	odo.Mode = ModeOdometryOnly

	hostile := base
	hostile.SecondaryBeacons = true
	hostile.EnableReporting = true
	hostile.Faults.GE = faults.Bursty(0.5, faults.DefaultBurstFrames)
	hostile.Faults.CrashFraction = 0.25
	hostile.Faults.CrashMeanDownS = 40
	hostile.Faults.OutlierProb = 0.05

	return map[string]Config{
		"grid": base, "grid-eager": base, "ekf": ekf, "mcl": mcl,
		"odometry-only": odo, "hostile": hostile,
	}
}

// A scratch-built run must be byte-identical to a fresh run of the same
// config — including when the scratch is warm from a run of a *different*
// config, so recycled streams, grids, and result buffers all carry state
// that must be fully overwritten.
func TestScratchByteIdentity(t *testing.T) {
	warm := testConfig()
	warm.NumRobots = 8
	warm.NumEquipped = 4
	warm.DurationS = 100
	warm.GridCellM = 8 // grid geometry mismatch: forces the allocate path next run
	warm.Seed = 99

	sc := NewScratch()
	for name, cfg := range scratchVariants() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if name == "grid-eager" {
				ctx = WithEagerStats(ctx)
			}
			fresh, err := RunContext(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunScratch(nil, warm, sc); err != nil {
				t.Fatal(err)
			}
			got, err := RunScratch(ctx, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("scratch-built result differs from fresh run")
			}
			// Second pass on the now-warm scratch with a released result:
			// exercises grid reuse (matching geometry) and result recycling.
			sc.ReleaseResult(got)
			again, err := RunScratch(ctx, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, again) {
				t.Errorf("second scratch reuse diverged from fresh run")
			}
		})
	}
}

// A released Result's buffers must actually be recycled: the next run on
// the scratch writes into the same backing arrays.
func TestScratchRecyclesResultBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	sc := NewScratch()
	res, err := RunScratch(nil, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.PerRobot) == 0 || len(res.PerRobot[0]) == 0 {
		t.Fatal("run produced no samples")
	}
	times0 := &res.Times[0]
	per0 := &res.PerRobot[0][0]
	sc.ReleaseResult(res)
	res2, err := RunScratch(nil, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("released Result not recycled")
	}
	if &res2.Times[0] != times0 || &res2.PerRobot[0][0] != per0 {
		t.Error("recycled Result reallocated its buffers")
	}
}

// allocBytesPerRun measures the average heap bytes one call of f allocates.
// TotalAlloc is monotonic (GC never decreases it), so the measurement is
// stable without disabling collection.
func allocBytesPerRun(f func()) float64 {
	const runs = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// The scratch's reason to exist: replications through a warm scratch must
// allocate less than fresh runs — fewer objects, and a small fraction of
// the bytes (the savings concentrate in few-but-large allocations: belief
// grids and the ~5 KB lagged-Fibonacci state vector behind every stream).
// The pins are ratios, not absolute counts, so they stay meaningful as the
// engine evolves.
func TestScratchReuseAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	sc := NewScratch()
	// Warm everything the comparison should not see: the process-wide
	// calibration cache, the scratch's pools, and the runtime itself.
	if _, err := RunScratch(nil, cfg, sc); err != nil {
		t.Fatal(err)
	}

	freshAllocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	reusedAllocs := testing.AllocsPerRun(3, func() {
		res, err := RunScratch(nil, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.ReleaseResult(res)
	})
	if reusedAllocs >= freshAllocs {
		t.Errorf("scratch run allocates %.0f objects, fresh %.0f: reuse saves nothing", reusedAllocs, freshAllocs)
	}

	freshBytes := allocBytesPerRun(func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	reusedBytes := allocBytesPerRun(func() {
		res, err := RunScratch(nil, cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.ReleaseResult(res)
	})
	if reusedBytes > freshBytes/3 {
		t.Errorf("scratch run allocates %.0f B, fresh %.0f B: want at least a 3x drop",
			reusedBytes, freshBytes)
	}
}
