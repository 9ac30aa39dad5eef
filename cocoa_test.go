package cocoa_test

import (
	"math"
	"testing"

	"cocoa"
)

// The public API must be usable exactly as the README shows.
func TestPublicQuickstart(t *testing.T) {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.BeaconPeriodS = 30
	cfg.DurationS = 120
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 60000

	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MeanError(); math.IsNaN(m) || m <= 0 {
		t.Errorf("MeanError = %v", m)
	}
	if s := res.EnergySavings(); s <= 1 {
		t.Errorf("EnergySavings = %v", s)
	}
}

func TestPublicModes(t *testing.T) {
	modes := []cocoa.Mode{cocoa.ModeOdometryOnly, cocoa.ModeRFOnly, cocoa.ModeCombined}
	want := []string{"odometry-only", "rf-only", "cocoa"}
	for i, m := range modes {
		if m.String() != want[i] {
			t.Errorf("mode %d = %q, want %q", i, m.String(), want[i])
		}
	}
}

func TestPublicGeometryHelpers(t *testing.T) {
	r := cocoa.Square(200)
	if got := r.Area(); got != 40000 {
		t.Errorf("Square(200).Area() = %v", got)
	}
	v := cocoa.Vec2{X: 3, Y: 4}
	if got := v.Len(); got != 5 {
		t.Errorf("Vec2.Len = %v", got)
	}
}

func TestPublicSweepAccessors(t *testing.T) {
	ts := cocoa.ExperimentBeaconSweep()
	if len(ts) != 4 || ts[0] != 10 || ts[3] != 300 {
		t.Errorf("beacon sweep = %v", ts)
	}
	ns := cocoa.ExperimentDeviceCounts()
	if len(ns) != 4 || ns[0] != 5 || ns[3] != 35 {
		t.Errorf("device counts = %v", ns)
	}
	// The accessors must return copies.
	ts[0] = 999
	ns[0] = 999
	if cocoa.ExperimentBeaconSweep()[0] == 999 || cocoa.ExperimentDeviceCounts()[0] == 999 {
		t.Error("sweep accessors leak internal slices")
	}
}

func TestPublicTeamAPI(t *testing.T) {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.DurationS = 60
	cfg.BeaconPeriodS = 20
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 40000

	team, err := cocoa.NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if team.Table() == nil {
		t.Error("calibration table missing")
	}
	res, err := team.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalEstimates) != cfg.NumRobots ||
		len(res.FinalTruePositions) != cfg.NumRobots ||
		len(res.Equipped) != cfg.NumRobots {
		t.Errorf("final-state slices sized %d/%d/%d, want %d each",
			len(res.FinalEstimates), len(res.FinalTruePositions),
			len(res.Equipped), cfg.NumRobots)
	}
	equippedCount := 0
	for _, e := range res.Equipped {
		if e {
			equippedCount++
		}
	}
	if equippedCount != cfg.NumEquipped {
		t.Errorf("equipped count = %d, want %d", equippedCount, cfg.NumEquipped)
	}
}

func TestPublicLocalizerBackends(t *testing.T) {
	kinds := []cocoa.LocalizerKind{cocoa.LocalizerGrid, cocoa.LocalizerParticle, cocoa.LocalizerEKF}
	want := []string{"grid", "particle", "ekf"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("backend %d = %q, want %q", i, k.String(), want[i])
		}
	}
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.DurationS = 90
	cfg.BeaconPeriodS = 25
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 40000
	cfg.Localizer = cocoa.LocalizerEKF
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes == 0 {
		t.Error("EKF backend produced no fixes through the public API")
	}
}

func TestPublicGeoRouting(t *testing.T) {
	pts := []cocoa.Vec2{{X: 0}, {X: 30}, {X: 60}}
	g, err := cocoa.NewGeoGraph(pts, pts, 40)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.GFG(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || out.Hops != 2 {
		t.Errorf("GFG outcome = %+v", out)
	}
}

func TestPublicCoopPosBaseline(t *testing.T) {
	rows := runExperiment[[]cocoa.BaselineRow](t, "baseline", cocoa.ExperimentOptions{
		Seed: 5, DurationS: 150, NumRobots: 10,
		CalibrationSamples: 40000, GridCellM: 8,
	})
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
}

func TestPublicSteadyStateMean(t *testing.T) {
	s := cocoa.Series{Times: []float64{0, 10, 20}, Values: []float64{100, 2, 4}}
	if got := cocoa.SteadyStateMean(s, 10); got != 3 {
		t.Errorf("SteadyStateMean = %v", got)
	}
}
