package cocoa

import (
	"math"
	"testing"

	"cocoa/internal/faults"
)

// Fault-injection integration: the faults layer composed with the full
// stack (NIC filter, crash outages, RSSI outliers, clock skew).

// A constructed-but-disabled fault config must be indistinguishable from
// the zero value: no filter installed, no RNG stream consumed, every
// counter and metric identical to the clean run.
func TestDisabledFaultConfigIsNoOp(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults.GE = faults.Bursty(0, 6) // zero rate -> disabled channel
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanError() != clean.MeanError() {
		t.Errorf("disabled faults changed error: %v vs %v", res.MeanError(), clean.MeanError())
	}
	if res.TotalEnergyJ != clean.TotalEnergyJ {
		t.Errorf("disabled faults changed energy: %v vs %v", res.TotalEnergyJ, clean.TotalEnergyJ)
	}
	if res.Fixes != clean.Fixes || res.MAC.Sent != clean.MAC.Sent {
		t.Errorf("disabled faults changed counters: fixes %d vs %d, sent %d vs %d",
			res.Fixes, clean.Fixes, res.MAC.Sent, clean.MAC.Sent)
	}
	if res.FaultDrops != 0 || res.RSSIOutliers != 0 || res.Crashes != 0 {
		t.Errorf("fault counters nonzero on a clean run: %+v", res)
	}
}

// Bursty loss must eat frames and cost fixes, but the run completes with
// finite, bounded errors — graceful degradation, not collapse.
func TestBurstyLossDegradesCoverage(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults.GE = faults.Bursty(0.5, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultDrops == 0 {
		t.Fatal("50% bursty loss dropped nothing")
	}
	if res.FixRate() >= clean.FixRate() {
		t.Errorf("fix rate did not degrade under loss: %v vs clean %v",
			res.FixRate(), clean.FixRate())
	}
	for i, v := range res.AvgError {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("degenerate error %v at sample %d", v, i)
		}
	}
}

// Crash outages: the configured fraction crashes (never the Sync robot),
// recoveries follow, and the team localizes worse while members are dark.
func TestCrashRecoveryCycle(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults.CrashFraction = 0.25
	cfg.Faults.CrashMeanDownS = 60
	crashes, recovers := map[int]int{}, map[int]int{}
	cfg.Observer = func(e Event) {
		switch e.Kind {
		case EventCrash:
			crashes[e.Robot]++
		case EventRecover:
			recovers[e.Robot]++
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantK := 3 // round(0.25 * 12)
	if res.Crashes != wantK || len(crashes) != wantK {
		t.Errorf("crashes = %d (robots %v), want %d", res.Crashes, crashes, wantK)
	}
	if crashes[0] != 0 {
		t.Error("the Sync robot crashed; the schedule must survive")
	}
	for id, n := range crashes {
		if n != 1 {
			t.Errorf("robot %d crashed %d times, want once", id, n)
		}
		if recovers[id] > 1 {
			t.Errorf("robot %d recovered %d times", id, recovers[id])
		}
	}
	if res.MissedWindows <= clean.MissedWindows {
		t.Errorf("crashed windows not counted as missed: %d <= clean %d",
			res.MissedWindows, clean.MissedWindows)
	}
}

// With CrashMeanDownS zero, crashed robots stay down for good: no recover
// events, and the outage shows up in the energy ledger as Off time.
func TestPermanentCrashes(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.CrashFraction = 0.25
	recovered := 0
	cfg.Observer = func(e Event) {
		if e.Kind == EventRecover {
			recovered++
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 {
		t.Errorf("%d permanent crashes recovered", recovered)
	}
	if res.Crashes != 3 {
		t.Errorf("crashes = %d, want 3", res.Crashes)
	}
}

// RSSI outlier spikes feed corrupted measurements into the Bayesian
// update; the estimator must absorb them without NaNs or unbounded error.
func TestOutlierSpikesSurvivable(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.OutlierProb = 0.4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RSSIOutliers == 0 {
		t.Fatal("no outliers injected at p=0.4")
	}
	if res.FaultDrops != 0 {
		t.Errorf("outlier-only config dropped %d frames", res.FaultDrops)
	}
	diag := cfg.Area.Diagonal()
	for i, v := range res.AvgError {
		if math.IsNaN(v) || v < 0 || v > diag {
			t.Fatalf("degenerate error %v at sample %d", v, i)
		}
	}
}

// Initial clock skew delays beacons and sleep timers, but the SYNC
// machinery heals it; with SYNC disabled the skew persists and coverage
// must be no better.
func TestClockSkewHealedBySync(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.SkewMaxS = 1.5
	synced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableSync = true
	unsynced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if synced.FixRate() < unsynced.FixRate() {
		t.Errorf("SYNC-healed skew fixed less than persistent skew: %v < %v",
			synced.FixRate(), unsynced.FixRate())
	}
	if synced.SyncsReceived == 0 {
		t.Error("no SYNC messages received in the healing run")
	}
}

// The acceptance scenario: 50% burst loss and 20% of the team crashed at
// once. The run must complete, and both headline robustness metrics must
// be strictly worse than the clean run.
func TestSevereFaultsGracefulDegradation(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults.GE = faults.Bursty(0.5, 4)
	cfg.Faults.CrashFraction = 0.2
	cfg.Faults.CrashMeanDownS = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanError() <= clean.MeanError() {
		t.Errorf("mean error did not degrade: faulty %v <= clean %v",
			res.MeanError(), clean.MeanError())
	}
	if res.UncoveredFraction() <= clean.UncoveredFraction() {
		t.Errorf("uncovered fraction did not degrade: faulty %v <= clean %v",
			res.UncoveredFraction(), clean.UncoveredFraction())
	}
	if res.Crashes == 0 || res.FaultDrops == 0 {
		t.Errorf("fault machinery idle: crashes=%d drops=%d", res.Crashes, res.FaultDrops)
	}
}

// Faulty runs are as reproducible as clean ones: every fault source draws
// from its own named stream.
func TestFaultDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Faults.GE = faults.Bursty(0.3, 5)
	cfg.Faults.OutlierProb = 0.2
	cfg.Faults.CrashFraction = 0.25
	cfg.Faults.CrashMeanDownS = 45
	cfg.Faults.SkewMaxS = 0.5

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanError() != b.MeanError() || a.TotalEnergyJ != b.TotalEnergyJ {
		t.Errorf("same seed, different results: %v/%v vs %v/%v",
			a.MeanError(), a.TotalEnergyJ, b.MeanError(), b.TotalEnergyJ)
	}
	if a.FaultDrops != b.FaultDrops || a.RSSIOutliers != b.RSSIOutliers || a.Crashes != b.Crashes {
		t.Errorf("fault counters diverged: %d/%d/%d vs %d/%d/%d",
			a.FaultDrops, a.RSSIOutliers, a.Crashes,
			b.FaultDrops, b.RSSIOutliers, b.Crashes)
	}
}

// UncoveredFraction is 1 - FixRate and NaN without opportunities.
func TestUncoveredFraction(t *testing.T) {
	r := &Result{Fixes: 30, MissedWindows: 10}
	if got := r.UncoveredFraction(); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("UncoveredFraction = %v, want 0.25", got)
	}
	if got := (&Result{}).UncoveredFraction(); !math.IsNaN(got) {
		t.Errorf("empty result UncoveredFraction = %v, want NaN", got)
	}
}
