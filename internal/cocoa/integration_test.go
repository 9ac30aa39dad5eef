package cocoa

import (
	"math"
	"testing"
)

// Failure injection and stress scenarios across the full stack.

// With a severely shortened radio range and very few equipped robots, the
// network is coverage-limited: some robots miss whole windows. The system
// must degrade gracefully — lower fix rate, no panics, bounded error.
func TestCoverageGapsDegradeGracefully(t *testing.T) {
	cfg := testConfig()
	cfg.NumRobots = 16
	cfg.NumEquipped = 2
	cfg.DurationS = 400
	// Shrink the decodable range to ~60 m in a 200 m arena.
	cfg.Radio.SensitivityDBm = -85

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedWindows == 0 {
		t.Error("expected missed windows in a coverage-limited deployment")
	}
	if rate := res.FixRate(); !(rate > 0 && rate < 1) {
		t.Errorf("fix rate = %v, want partial coverage (0,1)", rate)
	}
	for i, v := range res.AvgError {
		if math.IsNaN(v) || v < 0 || v > 300 {
			t.Fatalf("degenerate error %v at sample %d", v, i)
		}
	}
}

// Heavy channel contention: short periods, large k. Collisions must occur
// and the stack must survive them.
func TestHeavyContention(t *testing.T) {
	cfg := testConfig()
	cfg.BeaconPeriodS = 5
	cfg.TransmitPeriodS = 3
	cfg.BeaconsPerWindow = 8
	cfg.DurationS = 120

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAC.Collided == 0 {
		t.Error("expected collisions under heavy contention")
	}
	if res.Fixes == 0 {
		t.Error("no fixes despite k=8 redundancy")
	}
}

// A transmit window so short that the SYNC guard consumes it exercises the
// fallback beacon spreading path.
func TestTinyTransmitWindow(t *testing.T) {
	cfg := testConfig()
	cfg.TransmitPeriodS = 0.3
	cfg.BeaconPeriodS = 20
	cfg.DurationS = 100

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAC.Sent == 0 {
		t.Error("no frames sent with a tiny window")
	}
}

// All-equipped teams have nobody to localize; the config must be rejected
// rather than dividing by zero at sampling time.
func TestAllEquippedRejected(t *testing.T) {
	cfg := testConfig()
	cfg.NumEquipped = cfg.NumRobots
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted all-equipped RF configuration")
	}
	// Odometry-only mode does not care.
	cfg.Mode = ModeOdometryOnly
	if err := cfg.Validate(); err != nil {
		t.Fatalf("odometry-only rejected: %v", err)
	}
}

// One single equipped robot cannot give three distinct beacons' geometry
// much diversity, but k=3 beacons still satisfy the >=3 rule; the estimate
// is poor yet bounded (ring ambiguity collapses to the beacon ring).
func TestSingleAnchorBoundedError(t *testing.T) {
	cfg := testConfig()
	cfg.NumRobots = 6
	cfg.NumEquipped = 1
	cfg.DurationS = 300

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diag := cfg.Area.Diagonal()
	for i, v := range res.AvgError {
		if v > diag {
			t.Fatalf("error %v at sample %d exceeds the arena diagonal", v, i)
		}
	}
}

// Long-duration stability: no leaks of pending events, no error blowup
// after many periods.
func TestManyPeriodsStable(t *testing.T) {
	cfg := testConfig()
	cfg.BeaconPeriodS = 10
	cfg.DurationS = 900 // 90 periods

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.ErrorAt(100)
	last := res.ErrorAt(890)
	if last > 5*first+20 {
		t.Errorf("error drifted across periods: t=100 %.1f m, t=890 %.1f m", first, last)
	}
}

// Uncoordinated mode must never miss frames to sleeping radios, even with
// drifting clocks (nobody sleeps).
func TestUncoordinatedImmuneToDrift(t *testing.T) {
	cfg := testConfig()
	cfg.Coordinated = false
	cfg.ClockDriftSigmaS = 3
	cfg.DisableSync = true
	cfg.DurationS = 300

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAC.MissedAsleep != 0 {
		t.Errorf("uncoordinated run missed %d frames asleep", res.MAC.MissedAsleep)
	}
	if res.FixRate() < 0.9 {
		t.Errorf("uncoordinated fix rate = %v", res.FixRate())
	}
}

// The particle backend must also hold up under the stress scenario.
func TestParticleBackendUnderStress(t *testing.T) {
	cfg := testConfig()
	cfg.Localizer = LocalizerParticle
	cfg.Particles = 500
	cfg.BeaconPeriodS = 10
	cfg.DurationS = 200

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.AvgError {
		if math.IsNaN(v) {
			t.Fatalf("NaN error at sample %d", i)
		}
	}
	if res.Fixes == 0 {
		t.Error("no fixes from the particle backend")
	}
}

// Controller reporting: localized robots unicast status reports to the
// Sync robot by greedy geographic forwarding over their CoCoA estimates.
func TestControllerReporting(t *testing.T) {
	cfg := testConfig()
	cfg.EnableReporting = true
	cfg.DurationS = 400
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportsSent == 0 {
		t.Fatal("no reports sent")
	}
	rate := res.ReportDeliveryRate()
	if rate < 0.7 {
		t.Errorf("report delivery rate = %.2f, want most reports through "+
			"(sent %d, delivered %d)", rate, res.ReportsSent, res.ReportsDelivered)
	}
	if res.ReportsDelivered > 0 && res.ReportHopsTotal < res.ReportsDelivered {
		t.Errorf("hops %d below delivered %d", res.ReportHopsTotal, res.ReportsDelivered)
	}
}

func TestReportingOffByDefault(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportsSent != 0 || res.ReportsDelivered != 0 {
		t.Errorf("reporting traffic without EnableReporting: %+v", res.ReportsSent)
	}
	if !math.IsNaN(res.ReportDeliveryRate()) {
		t.Error("delivery rate must be NaN when reporting is off")
	}
}
