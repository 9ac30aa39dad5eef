package bayes

import (
	"fmt"
	"math"
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// Equivalence tests: the lazy/LUT fast path in ApplyBeacon must match the
// retained eager reference implementation (applyBeaconEager) cell-for-cell
// within 1e-9 relative tolerance, for every PDF shape the simulation can
// produce — analytic Gaussians, tabulated Gaussians, tabulated empirical
// histograms, and generic densities with no fast-path interface at all.

// plainDensity hides every optional interface, forcing the generic path.
type plainDensity struct{ inner DistanceDensity }

func (p plainDensity) Density(d float64) float64 { return p.inner.Density(d) }

func testPDFs(t *testing.T) map[string]DistanceDensity {
	t.Helper()
	gauss := caltable.GaussianPDF{Mu: 35, Sigma: 4}
	tabGauss, err := caltable.Tabulate(gauss, constraintFloor, 0.0625, 220)
	if err != nil {
		t.Fatal(err)
	}
	emp := empiricalFixture()
	tabEmp, err := caltable.Tabulate(emp, constraintFloor, 0.0625, 220)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]DistanceDensity{
		"gaussian-analytic":   gauss,
		"gaussian-tabulated":  tabGauss,
		"empirical-tabulated": tabEmp,
		"generic-no-fastpath": plainDensity{inner: tabEmp},
		"gaussian-narrow":     caltable.GaussianPDF{Mu: 8, Sigma: 0.6},
	}
}

func empiricalFixture() *caltable.EmpiricalPDF {
	bins := make([]float64, 110)
	for i := 40 / 2; i < 90/2; i++ {
		bins[i] = 0.01 + 0.0005*float64(i%7)
	}
	bins[30] = 1e-9 // a sub-floor dip inside the support
	return &caltable.EmpiricalPDF{BinWidth: 2, Bins: bins}
}

func maxRelDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if scale == 0 {
			continue
		}
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

// outOfAreaBeacons sit 150 m beyond each edge of the 200 m test area —
// farther than any test PDF's support reaches — so a tabulated PDF's column
// interval comes out empty or inverted (hi < lo, even hi < 0) on every row
// it spans; the update must be a no-op there, not a panic.
var outOfAreaBeacons = []geom.Vec2{
	{X: -150, Y: 100}, {X: 350, Y: 100}, {X: 100, Y: -150}, {X: 100, Y: 350},
}

func TestFastPathMatchesEagerReference(t *testing.T) {
	rng := sim.NewRNG(77).Stream("equiv")
	pdfs := testPDFs(t)
	for name, pdf := range pdfs {
		t.Run(name, func(t *testing.T) {
			fast, _ := NewGrid(geom.Square(200), 2)
			ref, _ := NewGrid(geom.Square(200), 2)
			beacons := make([]geom.Vec2, 0, 6+len(outOfAreaBeacons))
			for b := 0; b < 6; b++ {
				beacons = append(beacons, geom.Vec2{X: rng.Uniform(-10, 210), Y: rng.Uniform(-10, 210)})
			}
			beacons = append(beacons, outOfAreaBeacons...)
			for b, pos := range beacons {
				fast.ApplyBeacon(pos, pdf)
				ref.applyBeaconEager(pos, pdf)
				if fast.BeaconCount() != ref.BeaconCount() {
					t.Fatalf("beacon %d: count %d vs %d", b, fast.BeaconCount(), ref.BeaconCount())
				}
			}
			fast.Renormalize()
			if worst := maxRelDiff(fast.p, ref.p); worst > 1e-9 {
				t.Fatalf("cells diverge: max relative diff %v", worst)
			}
			if d := fast.Estimate().Dist(ref.Estimate()); d > 1e-7 {
				t.Fatalf("estimates diverge by %v m", d)
			}
			if d := math.Abs(fast.Entropy() - ref.Entropy()); d > 1e-7 {
				t.Fatalf("entropies diverge by %v", d)
			}
		})
	}
}

// Mixed sequences with interleaved resets, many beacons per window, and
// every PDF shape in one run — the closest in-package analogue of a full
// scenario window.
func TestFastPathMatchesEagerMixedSequence(t *testing.T) {
	rng := sim.NewRNG(123).Stream("equiv-mixed")
	pdfs := testPDFs(t)
	names := make([]string, 0, len(pdfs))
	for n := range pdfs {
		names = append(names, n)
	}
	fast, _ := NewGrid(geom.Square(120), 4)
	ref, _ := NewGrid(geom.Square(120), 4)
	for step := 0; step < 200; step++ {
		if rng.Bool(0.05) {
			fast.Reset()
			ref.Reset()
			continue
		}
		pdf := pdfs[names[rng.Intn(len(names))]]
		pos := geom.Vec2{X: rng.Uniform(0, 120), Y: rng.Uniform(0, 120)}
		fast.ApplyBeacon(pos, pdf)
		ref.applyBeaconEager(pos, pdf)
		if step%20 == 19 {
			fast.Renormalize()
			if worst := maxRelDiff(fast.p, ref.p); worst > 1e-9 {
				t.Fatalf("step %d: max relative diff %v", step, worst)
			}
		}
	}
}

// TestLazyNormalizationDrift is the satellite property: however long the
// grid defers normalization, a forced Renormalize must bring
// TotalProbability back into [1-1e-6, 1+1e-6].
func TestLazyNormalizationDrift(t *testing.T) {
	for _, seed := range []int64{5, 99, 2024} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed).Stream("lazy-drift")
			g, _ := NewGrid(geom.Square(200), 2)
			tab, err := caltable.Tabulate(
				caltable.GaussianPDF{Mu: 30, Sigma: 2}, constraintFloor, 0.0625, 220)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 400; b++ {
				pos := geom.Vec2{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)}
				g.ApplyBeacon(pos, tab)
				// No readouts: mass grows freely until the overflow guard
				// renormalizes internally.
			}
			g.Renormalize()
			if tot := g.TotalProbability(); math.Abs(tot-1) > 1e-6 {
				t.Fatalf("TotalProbability drifted to %v after forced renormalization", tot)
			}
			if g.mass != 1 {
				t.Fatalf("mass %v after Renormalize, want 1", g.mass)
			}
		})
	}
}

// The overflow guard must fire before the mass leaves the representable
// range, keeping long no-readout windows finite.
func TestMassOverflowGuard(t *testing.T) {
	g, _ := NewGrid(geom.Square(40), 2)
	spiky := caltable.GaussianPDF{Mu: 10, Sigma: 0.6} // peak/floor ~ 6.6e5
	for b := 0; b < 5000; b++ {
		g.ApplyBeacon(geom.Vec2{X: 20, Y: 20}, spiky)
		if math.IsInf(g.mass, 0) || math.IsNaN(g.mass) || g.mass > massRenormHigh*1e10 {
			t.Fatalf("beacon %d: mass escaped to %v", b, g.mass)
		}
	}
	if tot := g.TotalProbability(); math.Abs(tot-1) > 1e-6 {
		t.Fatalf("TotalProbability = %v after guarded sequence", tot)
	}
}
