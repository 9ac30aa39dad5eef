package bayes

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

func newGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(geom.Rect{}, 2); err == nil {
		t.Error("accepted degenerate area")
	}
	if _, err := NewGrid(geom.Square(100), 0); err == nil {
		t.Error("accepted zero cell size")
	}
	if _, err := NewGrid(geom.Square(1e6), 0.1); err == nil {
		t.Error("accepted absurd grid size")
	}
	// 2^32 cells per side: nx*ny wraps to 0 in int arithmetic.
	if _, err := NewGrid(geom.Square(1<<32), 1); err == nil {
		t.Error("accepted a grid whose cell count overflows int")
	}
}

func TestGridDims(t *testing.T) {
	g := newGrid(t)
	nx, ny := g.Dims()
	if nx != 100 || ny != 100 {
		t.Errorf("dims = %dx%d, want 100x100", nx, ny)
	}
	if g.CellSize() != 2 {
		t.Errorf("CellSize = %v", g.CellSize())
	}
	if g.Area() != geom.Square(200) {
		t.Errorf("Area = %+v", g.Area())
	}
}

func TestUniformPrior(t *testing.T) {
	g := newGrid(t)
	if got := g.TotalProbability(); math.Abs(got-1) > 1e-9 {
		t.Errorf("total probability = %v", got)
	}
	// Uniform prior: estimate is the area center.
	if got, want := g.Estimate(), geom.Square(200).Center(); got.Dist(want) > 1e-6 {
		t.Errorf("uniform estimate = %v, want %v", got, want)
	}
	wantH := math.Log(100 * 100)
	if got := g.Entropy(); math.Abs(got-wantH) > 1e-9 {
		t.Errorf("uniform entropy = %v, want %v", got, wantH)
	}
}

func TestApplyBeaconConcentratesBelief(t *testing.T) {
	g := newGrid(t)
	pdf := caltable.GaussianPDF{Mu: 20, Sigma: 2}
	h0 := g.Entropy()
	g.ApplyBeacon(geom.Vec2{X: 100, Y: 100}, pdf)
	if got := g.TotalProbability(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("posterior not normalized: %v", got)
	}
	if g.Entropy() >= h0 {
		t.Error("beacon did not reduce entropy")
	}
	if g.BeaconCount() != 1 {
		t.Errorf("BeaconCount = %d", g.BeaconCount())
	}
	// The belief should now live on a ring of radius ~20 around (100,100):
	// a point on the ring outranks both the center and a far corner.
	onRing := g.ProbabilityAt(geom.Vec2{X: 120, Y: 100})
	center := g.ProbabilityAt(geom.Vec2{X: 100, Y: 100})
	corner := g.ProbabilityAt(geom.Vec2{X: 5, Y: 5})
	if onRing <= center || onRing <= corner {
		t.Errorf("ring=%v center=%v corner=%v", onRing, center, corner)
	}
}

// Three well-placed beacons trilaterate: the estimate lands near the true
// position. This is the algorithm's core correctness property.
func TestThreeBeaconsTrilaterate(t *testing.T) {
	g := newGrid(t)
	truth := geom.Vec2{X: 70, Y: 120}
	anchors := []geom.Vec2{{X: 40, Y: 100}, {X: 100, Y: 140}, {X: 80, Y: 60}}
	for _, a := range anchors {
		g.ApplyBeacon(a, caltable.GaussianPDF{Mu: truth.Dist(a), Sigma: 2})
	}
	if !g.Ready() {
		t.Fatal("grid not Ready after 3 beacons")
	}
	if err := g.Estimate().Dist(truth); err > 5 {
		t.Errorf("trilateration error = %.2f m, want < 5", err)
	}
	if err := g.MAP().Dist(truth); err > 6 {
		t.Errorf("MAP error = %.2f m, want < 6", err)
	}
}

// The grid counts every apply by density mode and renorm outcome, and its
// incremental-statistics re-sums; the counts span Reset (a run resets its
// grid every window) until ResetTelemetry.
func TestGridTelemetry(t *testing.T) {
	g := newGrid(t)
	opts := caltable.DefaultOptions()
	opts.Samples = 20000
	tab, err := caltable.Calibrate(radio.DefaultModel(), opts, sim.NewRNG(5).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	pdf, ok := tab.Lookup(-70)
	if !ok {
		t.Fatal("no PDF at -70 dBm")
	}
	const n = 70 // past statsResumEvery, so Estimate re-sums
	for i := 0; i < n; i++ {
		g.ApplyBeacon(geom.Vec2{X: 100, Y: 100}, pdf)
		g.ApplyBeacon(geom.Vec2{X: 50, Y: 60}, caltable.GaussianPDF{Mu: 30, Sigma: 3})
	}
	g.Estimate()
	g.Entropy()
	g.Reset()
	count := func(publish func(*telemetry.Registry)) map[string]int64 {
		reg := telemetry.NewRegistry()
		publish(reg)
		out := map[string]int64{}
		for _, c := range reg.Snapshot().Counters {
			out[c.Name] = c.Value
		}
		return out
	}
	c := count(g.Publish)
	if applies := c["bayes.apply.nearest"] + c["bayes.apply.lerp"] + c["bayes.apply.generic"]; applies != 2*n {
		t.Errorf("applies by mode sum to %d, want %d: %v", applies, 2*n, c)
	}
	if renorms := c["bayes.renorm_taken"] + c["bayes.renorm_deferred"] + c["bayes.collapse_resets"]; renorms != 2*n {
		t.Errorf("renorm outcomes sum to %d, want %d: %v", renorms, 2*n, c)
	}
	if c["bayes.stats_resum"] < 2 {
		t.Errorf("stats_resum = %d, want the Estimate and Entropy re-sums", c["bayes.stats_resum"])
	}
	kept := g.Counts()
	g.ResetTelemetry()
	for name, v := range count(g.Publish) {
		if v != 0 {
			t.Errorf("after ResetTelemetry %s = %d", name, v)
		}
	}
	if got := count(kept.Publish); !reflect.DeepEqual(got, c) {
		t.Errorf("Counts copy reads %v after ResetTelemetry, want %v", got, c)
	}
	// Summed copies publish the sum of what each publishes.
	var sum GridCounts
	sum.Add(kept)
	sum.Add(kept)
	for name, v := range count(sum.Publish) {
		if v != 2*c[name] {
			t.Errorf("two summed copies publish %s = %d, want %d", name, v, 2*c[name])
		}
	}
}

// With only two beacons the posterior is ambiguous (two ring
// intersections); the paper's >=3 beacon rule exists for this reason.
func TestTwoBeaconsAmbiguous(t *testing.T) {
	g := newGrid(t)
	// Anchors on the horizontal chord y=100; the truth at (100,140)
	// mirrors to (100,60) with identical distances to both anchors.
	truth := geom.Vec2{X: 100, Y: 140}
	mirror := geom.Vec2{X: 100, Y: 60}
	anchors := []geom.Vec2{{X: 50, Y: 100}, {X: 150, Y: 100}}
	for _, a := range anchors {
		g.ApplyBeacon(a, caltable.GaussianPDF{Mu: truth.Dist(a), Sigma: 2})
	}
	if g.Ready() {
		t.Error("Ready after only 2 beacons")
	}
	pm := g.ProbabilityAt(mirror)
	pt := g.ProbabilityAt(truth)
	if pm < pt/50 {
		t.Errorf("mirror mass %v vastly below truth %v; expected ambiguity", pm, pt)
	}
}

func TestMoreBeaconsImproveAccuracy(t *testing.T) {
	truth := geom.Vec2{X: 130, Y: 60}
	anchors := []geom.Vec2{
		{X: 20, Y: 20}, {X: 180, Y: 30}, {X: 100, Y: 180},
		{X: 60, Y: 90}, {X: 170, Y: 120}, {X: 40, Y: 160},
	}
	errAfter := func(n int) float64 {
		g := newGrid(t)
		for _, a := range anchors[:n] {
			g.ApplyBeacon(a, caltable.GaussianPDF{Mu: truth.Dist(a), Sigma: 4})
		}
		return g.Estimate().Dist(truth)
	}
	if e3, e6 := errAfter(3), errAfter(6); e6 > e3+1 {
		t.Errorf("accuracy degraded with more beacons: 3->%.2f m, 6->%.2f m", e3, e6)
	}
}

func TestResetRestoresUniform(t *testing.T) {
	g := newGrid(t)
	g.ApplyBeacon(geom.Vec2{X: 50, Y: 50}, caltable.GaussianPDF{Mu: 10, Sigma: 2})
	g.Reset()
	if g.BeaconCount() != 0 {
		t.Error("beacon count not cleared")
	}
	if got, want := g.Entropy(), math.Log(100*100); math.Abs(got-want) > 1e-9 {
		t.Errorf("entropy after reset = %v, want %v", got, want)
	}
}

// A conflicting beacon (PDF mass nowhere near the current belief) must not
// produce NaNs or a zero posterior thanks to the constraint floor.
func TestConflictingBeaconsStayFinite(t *testing.T) {
	g := newGrid(t)
	g.ApplyBeacon(geom.Vec2{X: 10, Y: 10}, caltable.GaussianPDF{Mu: 5, Sigma: 0.5})
	g.ApplyBeacon(geom.Vec2{X: 190, Y: 190}, caltable.GaussianPDF{Mu: 5, Sigma: 0.5})
	tot := g.TotalProbability()
	if math.IsNaN(tot) || math.Abs(tot-1) > 1e-6 {
		t.Fatalf("posterior degenerate: total=%v", tot)
	}
	est := g.Estimate()
	if !geom.Square(200).Contains(est) {
		t.Errorf("estimate %v left the area", est)
	}
}

// End-to-end with the real calibration table: a robot receiving beacons
// from three anchors at realistic distances localizes within a few meters
// — the scale of the paper's CoCoA accuracy (~5-7 m).
func TestWithCalibratedTable(t *testing.T) {
	m := radio.DefaultModel()
	opts := caltable.DefaultOptions()
	opts.Samples = 150000
	tab, err := caltable.Calibrate(m, opts, sim.NewRNG(3).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.Vec2{X: 90, Y: 110}
	anchors := []geom.Vec2{{X: 70, Y: 100}, {X: 110, Y: 130}, {X: 95, Y: 80}, {X: 60, Y: 140}}
	const trials = 10
	var errSum float64
	for trial := 0; trial < trials; trial++ {
		rng := sim.NewRNG(int64(400 + trial)).Stream("chan")
		g := newGrid(t)
		applied := 0
		for _, a := range anchors {
			rssi := m.SampleRSSI(truth.Dist(a), rng)
			pdf, ok := tab.Lookup(rssi)
			if !ok {
				continue
			}
			g.ApplyBeacon(a, pdf)
			applied++
		}
		if applied < 3 {
			t.Fatalf("trial %d: only %d beacons applied", trial, applied)
		}
		errSum += g.Estimate().Dist(truth)
	}
	if avg := errSum / trials; avg > 10 {
		t.Errorf("avg calibrated localization error = %.2f m, want < 10", avg)
	}
}

// Property: normalization holds after any beacon sequence.
func TestNormalizationProperty(t *testing.T) {
	f := func(seeds []uint8) bool {
		g, err := NewGrid(geom.Square(200), 5)
		if err != nil {
			return false
		}
		for _, s := range seeds {
			pos := geom.Vec2{X: float64(s%200) + 0.5, Y: float64((s*7)%200) + 0.5}
			g.ApplyBeacon(pos, caltable.GaussianPDF{Mu: float64(s%60) + 1, Sigma: 2})
			if math.Abs(g.TotalProbability()-1) > 1e-6 {
				return false
			}
		}
		est := g.Estimate()
		return geom.Square(200).Contains(est)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProbabilityAtOutside(t *testing.T) {
	g := newGrid(t)
	if got := g.ProbabilityAt(geom.Vec2{X: -5, Y: 50}); got != 0 {
		t.Errorf("outside probability = %v", got)
	}
	// Boundary point maps into the last cell, not out of range.
	if got := g.ProbabilityAt(geom.Vec2{X: 200, Y: 200}); got <= 0 {
		t.Errorf("boundary probability = %v", got)
	}
}

// The annulus fast path must match a naive full-density evaluation.
func TestAnnulusMatchesNaive(t *testing.T) {
	naive := func(g *Grid, beaconPos geom.Vec2, pdf DistanceDensity) {
		// Reference implementation: evaluate the density at every cell.
		nx, ny := g.Dims()
		var sum float64
		i := 0
		for iy := 0; iy < ny; iy++ {
			cy := g.Area().Min.Y + (float64(iy)+0.5)*g.CellSize()
			for ix := 0; ix < nx; ix++ {
				cx := g.Area().Min.X + (float64(ix)+0.5)*g.CellSize()
				d := (geom.Vec2{X: cx, Y: cy}).Dist(beaconPos)
				c := pdf.Density(d)
				if c < constraintFloor {
					c = constraintFloor
				}
				g.p[i] *= c
				sum += g.p[i]
				i++
			}
		}
		inv := 1 / sum
		for j := range g.p {
			g.p[j] *= inv
		}
	}

	rng := sim.NewRNG(31).Stream("annulus")
	for trial := 0; trial < 10; trial++ {
		fast := newGrid(t)
		ref := newGrid(t)
		// naive writes ref.p directly, bypassing ApplyBeacon's accumulator
		// maintenance, so ref must read its statistics with full scans.
		ref.SetStatsMode(StatsEager)
		for b := 0; b < 4; b++ {
			pos := geom.Vec2{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)}
			pdf := caltable.GaussianPDF{Mu: rng.Uniform(3, 80), Sigma: rng.Uniform(0.5, 8)}
			fast.ApplyBeacon(pos, pdf)
			naive(ref, pos, pdf)
		}
		fast.Renormalize() // the lazy path stores unnormalized cells
		var maxDiff float64
		for i := range fast.p {
			if d := math.Abs(fast.p[i] - ref.p[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-9 {
			t.Fatalf("trial %d: fast path diverges from naive by %v", trial, maxDiff)
		}
		if est := fast.Estimate().Dist(ref.Estimate()); est > 1e-6 {
			t.Fatalf("trial %d: estimates diverge by %v m", trial, est)
		}
	}
}
