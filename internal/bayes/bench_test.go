package bayes

import (
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
)

// BenchmarkApplyBeacon measures the per-beacon grid update — the hot path
// of the whole simulation (10,000 cells at the paper's 2 m resolution).
func BenchmarkApplyBeacon(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	// Box the value PDF once: callers hold DistPDF interfaces, so the
	// conversion is not part of ApplyBeacon's steady-state cost.
	var pdf DistanceDensity = caltable.GaussianPDF{Mu: 40, Sigma: 5}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconTabulated is the production configuration: the same
// Gaussian, but routed through the radial lookup table as calibrated
// tables hand it out.
func BenchmarkApplyBeaconTabulated(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	pdf, err := caltable.Tabulate(caltable.GaussianPDF{Mu: 40, Sigma: 5}, constraintFloor, 0.0625, 220)
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconEmpirical exercises the far-regime histogram path,
// which before the LUT had no annulus bound and scanned the whole grid.
func BenchmarkApplyBeaconEmpirical(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]float64, 111)
	for i := 25; i < 60; i++ {
		bins[i] = 0.012
	}
	pdf, err := caltable.Tabulate(&caltable.EmpiricalPDF{BinWidth: 2, Bins: bins}, constraintFloor, 0.0625, 220)
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconCalibrated replays the production mix: beacons
// drawn through the default radio model and resolved by the default
// calibration table (calibratedReplay), so distant senders hit the
// nearest-mode histogram kernel and close ones the lerp Gaussian kernel
// (417 and 83 of the 500 replayed beacons). The belief resets every 50
// applies, like a robot's estimation window.
func BenchmarkApplyBeaconCalibrated(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	replay := calibratedReplay(b, 500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(replay)
		if k%50 == 0 {
			g.Reset()
		}
		g.ApplyBeacon(replay[k].pos, replay[k].pdf)
	}
}

func BenchmarkEstimate(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	g.ApplyBeacon(geom.Vec2{X: 70, Y: 120}, caltable.GaussianPDF{Mu: 40, Sigma: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Estimate()
	}
}

// BenchmarkGridStatsReadout isolates what the incremental accumulators buy:
// a per-sample readout (estimate + entropy, the sampling tick's read path)
// against a 100x100-cell grid. Incremental reads the running sums in O(1)
// between re-sum backstops; eager pays the full-grid scan every time.
func BenchmarkGridStatsReadout(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    StatsMode
	}{{"incremental", StatsIncremental}, {"eager", StatsEager}} {
		b.Run(mode.name, func(b *testing.B) {
			g, err := NewGrid(geom.Square(200), 2)
			if err != nil {
				b.Fatal(err)
			}
			g.SetStatsMode(mode.m)
			g.ApplyBeacon(geom.Vec2{X: 70, Y: 120}, caltable.GaussianPDF{Mu: 40, Sigma: 5})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Estimate()
				_ = g.Entropy()
			}
		})
	}
}
