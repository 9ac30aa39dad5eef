package scenario

import (
	"context"
	"math"
	"testing"
)

// fastOpts shrinks every scenario to test scale.
func fastOpts() Options {
	return Options{
		Seed:               7,
		DurationS:          240,
		NumRobots:          12,
		CalibrationSamples: 60000,
		GridCellM:          4,
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Times: []float64{0, 1, 2, 3}, Values: []float64{1, 2, 3, 10}}
	if got := s.Mean(); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Max(); got != 10 {
		t.Errorf("Max = %v", got)
	}
	if got := (Series{}).Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
	neg := Series{Times: []float64{0, 1}, Values: []float64{-5, -2}}
	if got := neg.Max(); got != -2 {
		t.Errorf("all-negative Max = %v, want -2", got)
	}
	if got := (Series{}).Max(); got != 0 {
		t.Errorf("empty Max = %v", got)
	}
	if got := SteadyStateMean(s, 2); got != 6.5 {
		t.Errorf("SteadyStateMean = %v", got)
	}
	if got := SteadyStateMean(s, 99); got != 0 {
		t.Errorf("SteadyStateMean beyond data = %v", got)
	}
}

// Figure 1: the strong-RSSI PDF must be Gaussian, the weak one must not
// be, and PDF means must order by distance.
func TestFig1(t *testing.T) {
	res, err := RunFig1(context.Background(), Options{Seed: 7, CalibrationSamples: 120000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strong.IsGaussian {
		t.Error("-52 dBm PDF not Gaussian (paper Fig 1a)")
	}
	if res.Weak.IsGaussian {
		t.Error("-86 dBm PDF Gaussian (paper Fig 1b says non-Gaussian)")
	}
	if res.Strong.MeanDist >= res.Weak.MeanDist {
		t.Errorf("mean distances out of order: strong %.1f, weak %.1f",
			res.Strong.MeanDist, res.Weak.MeanDist)
	}
	if len(res.Strong.Dists) == 0 || len(res.Strong.Dists) != len(res.Strong.Densities) {
		t.Error("strong curve malformed")
	}
	// Densities are non-negative and integrate to roughly one.
	for _, curve := range []PDFCurve{res.Strong, res.Weak} {
		var integral float64
		for i, d := range curve.Densities {
			if d < 0 {
				t.Fatalf("negative density in %v dBm curve", curve.RSSIDBm)
			}
			if i > 0 {
				integral += d * (curve.Dists[i] - curve.Dists[i-1])
			}
		}
		if math.Abs(integral-1) > 0.1 {
			t.Errorf("%v dBm PDF integral = %v", curve.RSSIDBm, integral)
		}
	}
}

// Figure 4: odometry error grows over time for both speeds.
func TestFig4(t *testing.T) {
	series, err := RunFig4(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want 2 curves, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Times) == 0 {
			t.Fatalf("%s: empty curve", s.Label)
		}
		early := s.Values[len(s.Values)/10]
		late := s.Values[len(s.Values)-1]
		if late <= early {
			t.Errorf("%s: odometry error did not grow (%.2f -> %.2f)", s.Label, early, late)
		}
	}
}

// Figure 5: the estimated path diverges from the true path.
func TestFig5(t *testing.T) {
	res, err := RunFig5(context.Background(), Options{Seed: 7, DurationS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.True) != len(res.Estimated) {
		t.Fatalf("path lengths differ: %d vs %d", len(res.True), len(res.Estimated))
	}
	if res.True[0] != res.Estimated[0] {
		t.Error("paths must start together (initial position provided)")
	}
	if res.FinalGapM <= 0 {
		t.Errorf("FinalGapM = %v, want positive drift", res.FinalGapM)
	}
}

// Figure 6: RF-only error for each T; larger T must not be more accurate
// than the smallest T in steady state (staleness grows with T).
func TestFig6(t *testing.T) {
	series, err := RunFig6(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(BeaconPeriods()) {
		t.Fatalf("want %d curves, got %d", len(BeaconPeriods()), len(series))
	}
	for _, s := range series {
		if SteadyStateMean(s, 60) > 90 {
			t.Errorf("%s: RF-only steady error %.1f m implausibly high", s.Label,
				SteadyStateMean(s, 60))
		}
	}
}

// Figure 7: CoCoA must beat RF-only in steady state for both speeds.
func TestFig7(t *testing.T) {
	results, err := RunFig7(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 speeds, got %d", len(results))
	}
	for _, r := range results {
		warm := 120.0
		cocoaM := SteadyStateMean(r.CoCoA, warm)
		rfM := SteadyStateMean(r.RFOnly, warm)
		if cocoaM >= rfM {
			t.Errorf("vmax=%.1f: CoCoA %.1f m not better than RF-only %.1f m",
				r.VMax, cocoaM, rfM)
		}
	}
}

// Figure 8: three snapshots; localization is best right after the transmit
// window.
func TestFig8(t *testing.T) {
	snaps, err := RunFig8(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("want 3 snapshots, got %d", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Errors) == 0 || len(s.Errors) != len(s.Probs) {
			t.Fatalf("%s: malformed CDF", s.Label)
		}
		if s.Probs[len(s.Probs)-1] != 1 {
			t.Errorf("%s: CDF does not reach 1", s.Label)
		}
	}
	afterWindow := snaps[1].P90
	beforeWindow := snaps[0].P90
	if afterWindow > beforeWindow+10 {
		t.Errorf("P90 after window (%.1f) much worse than before (%.1f)",
			afterWindow, beforeWindow)
	}
}

// Figure 9: energy savings must grow with T and stay above ~2x; error must
// stay bounded.
func TestFig9(t *testing.T) {
	rows, err := RunFig9(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(BeaconPeriods()) {
		t.Fatalf("want %d rows, got %d", len(BeaconPeriods()), len(rows))
	}
	for i, row := range rows {
		if row.SavingsRatio <= 1 {
			t.Errorf("T=%v: savings %.2f <= 1", row.PeriodS, row.SavingsRatio)
		}
		if i > 0 && row.SavingsRatio <= rows[i-1].SavingsRatio {
			t.Errorf("savings not increasing in T: %v", rows)
		}
		if row.CoordEnergyJ >= row.NoCoordEnergyJ {
			t.Errorf("T=%v: coordination did not save energy", row.PeriodS)
		}
	}
	// The paper's qualitative claim: larger T costs accuracy eventually;
	// T=300 must be worse than T=50 in steady state.
	t50 := SteadyStateMean(rows[1].ErrorSeries, 60)
	t300 := SteadyStateMean(rows[3].ErrorSeries, 60)
	if t300 < t50 {
		t.Logf("note: T=300 steady error %.1f below T=50 %.1f (short run)", t300, t50)
	}
}

// Figure 10: more equipped robots must not hurt accuracy much; the fix
// rate must not decrease with more devices.
func TestFig10(t *testing.T) {
	rows, err := RunFig10(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(EquippedCounts()) {
		t.Fatalf("want %d rows, got %d", len(EquippedCounts()), len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Equipped <= first.Equipped {
		t.Fatalf("sweep not increasing: %+v", rows)
	}
	if last.MeanErrorM > first.MeanErrorM+5 {
		t.Errorf("more devices made error much worse: %+v", rows)
	}
}

func TestExtensionSecondary(t *testing.T) {
	rows, err := RunExtensionSecondary(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.BaselineMeanM <= 0 || r.SecondaryMeanM <= 0 {
			t.Errorf("degenerate means: %+v", r)
		}
		if r.ExtraBeaconsOnAir <= 0 {
			t.Errorf("secondary beaconing added no traffic: %+v", r)
		}
	}
}

func TestAblationPruning(t *testing.T) {
	rows, err := RunAblationPruning(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[0].Pruning || rows[1].Pruning {
		t.Fatalf("rows malformed: %+v", rows)
	}
	for _, r := range rows {
		if r.SyncsReceived == 0 {
			t.Errorf("pruning=%v: SYNC never delivered", r.Pruning)
		}
	}
}

func TestAblationK(t *testing.T) {
	rows, err := RunAblationK(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].K != 1 || rows[2].K != 5 {
		t.Fatalf("k sweep wrong: %+v", rows)
	}
	if rows[2].BeaconsSent <= rows[0].BeaconsSent {
		t.Error("k=5 did not send more beacons than k=1")
	}
}

func TestAblationGrid(t *testing.T) {
	rows, err := RunAblationGrid(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	if rows[0].WallSenseN <= rows[3].WallSenseN {
		t.Error("finer grid must have more cells")
	}
	// Coarsest grid (8 m cells) should not beat the finest by a lot.
	if rows[3].MeanErrorM+6 < rows[0].MeanErrorM {
		t.Errorf("8 m grid much better than 1 m grid: %+v", rows)
	}
}
