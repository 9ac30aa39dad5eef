package caltable

import (
	"fmt"
	"math"
	"slices"
)

// TabulatedPDF wraps a fitted distance PDF with a precomputed radial
// likelihood lookup table at sub-cell resolution. The grid filter's beacon
// update evaluates the PDF once per candidate cell — tens of thousands of
// times per beacon — so replacing Exp/branching with a table index is the
// single largest win in the whole pipeline.
//
// The table carries explicit support bounds [RInner, ROuter]: outside them
// the underlying density is below Floor, the constraint floor the consumer
// clamps at, so a consumer may treat every outside cell as "floor" without
// evaluating anything. Support is what extends the annulus fast path —
// previously available only to Gaussian PDFs via their moments — to
// EmpiricalPDF histograms.
//
// Two sampling modes, chosen by the base PDF:
//
//   - Histograms (EmpiricalPDF) use nearest-sample mode with the step equal
//     to the histogram bin width and bin-aligned origin, so Density is
//     *exactly* the base density at every distance in support.
//   - Gaussians are sampled at the configured step (default 1/16 m, 32× the
//     paper's 2 m cell side) and linearly interpolated. The lerp error is
//     bounded by step²·max|f″|/8 = step²/(8σ³√2π), about 1e-4 of the peak
//     density at σ = 1 m and quadratically smaller for wider bins.
type TabulatedPDF struct {
	base DistPDF

	dens    []float64 // samples; dens[i] at r0 + i*step (lerp) or covering [r0+i*step, r0+(i+1)*step) (nearest)
	r0, r1  float64   // support bounds: density < floor outside [r0, r1]
	step    float64
	invStep float64
	floor   float64
	nearest bool
}

var _ DistPDF = (*TabulatedPDF)(nil)

// Tabulate builds the lookup table for pdf, a GaussianPDF or an
// *EmpiricalPDF. floor is the consumer's constraint floor (densities below
// it are indistinguishable from the clamp, so they bound the support); step
// is the Gaussian sampling resolution in meters. Empirical histograms
// ignore step and tabulate exactly at their own bin width.
func Tabulate(pdf DistPDF, floor, step, maxDist float64) (*TabulatedPDF, error) {
	if !(floor > 0) || !(step > 0) || !(maxDist > 0) {
		return nil, fmt.Errorf("caltable: Tabulate needs positive floor/step/maxDist")
	}
	t := &TabulatedPDF{base: pdf, floor: floor}
	if e, ok := pdf.(*EmpiricalPDF); ok {
		t.nearest = true
		t.step = e.BinWidth
		lo, hi := -1, -1
		for i, b := range e.Bins {
			if b >= floor {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo < 0 {
			lo, hi = 0, -1 // empty support: every cell takes the floor
		}
		t.dens = append([]float64(nil), e.Bins[lo:hi+1]...)
		t.r0 = float64(lo) * e.BinWidth
		t.r1 = float64(hi+1) * e.BinWidth
		t.invStep = 1 / t.step
		return t, nil
	}
	g, ok := pdf.(GaussianPDF)
	switch {
	case !ok:
		return nil, fmt.Errorf("caltable: cannot tabulate a %T", pdf)
	case math.Ceil(maxDist/step) > maxTableNodes:
		return nil, fmt.Errorf("caltable: step %v m makes more than %d table nodes", step, maxTableNodes)
	}

	// Node-sampled + lerp over the nodes i·step, i in [0, n]: keep those at
	// or above the floor, plus one node of margin on each side so densities
	// that cross the floor between nodes stay inside the table. The density
	// falls monotonically away from μ, so the kept nodes form one run
	// around the nodes c ≤ μ/step < c+1. Each walk out from them ends at
	// the first node below the floor, the margin, or at the table's edge;
	// only the kept nodes are evaluated.
	t.step = step
	n := int(math.Ceil(maxDist/step)) + 1
	c := -1
	if u := math.Floor(g.Mu / step); u >= float64(n) {
		c = n
	} else if u >= 0 {
		c = int(u)
	}
	at := func(i int) float64 { return g.Density(float64(i) * step) }
	var dens []float64
	lo := c + 1
	for lo > 0 {
		lo--
		v := at(lo)
		dens = append(dens, v)
		if !(v >= floor) {
			break
		}
	}
	slices.Reverse(dens)
	hi := c
	for hi < n {
		hi++
		v := at(hi)
		dens = append(dens, v)
		if !(v >= floor) {
			break
		}
	}
	if !slices.ContainsFunc(dens, func(v float64) bool { return v >= floor }) {
		// Empty support: one node at 0 and r0 = r1, so every density reads 0.
		lo, hi, dens = 0, 0, []float64{at(0)}
	}
	t.dens = dens
	t.r0 = float64(lo) * step
	t.r1 = float64(hi) * step
	t.invStep = 1 / step
	return t, nil
}

// Density implements DistPDF by table lookup. Outside the support it
// returns 0: the true density there is below the tabulation floor, so
// consumers clamping at that floor observe identical behavior.
func (t *TabulatedPDF) Density(d float64) float64 {
	if d < t.r0 || d >= t.r1 {
		return 0
	}
	u := (d - t.r0) * t.invStep
	j := int(u)
	if t.nearest {
		if j >= len(t.dens) {
			j = len(t.dens) - 1
		}
		return t.dens[j]
	}
	if j >= len(t.dens)-1 {
		return t.dens[len(t.dens)-1]
	}
	return t.dens[j] + (u-float64(j))*(t.dens[j+1]-t.dens[j])
}

// Mean implements DistPDF by delegation.
func (t *TabulatedPDF) Mean() float64 { return t.base.Mean() }

// Std implements DistPDF by delegation.
func (t *TabulatedPDF) Std() float64 { return t.base.Std() }

// IsGaussian implements DistPDF by delegation.
func (t *TabulatedPDF) IsGaussian() bool { return t.base.IsGaussian() }

// Base returns the analytic PDF the table was built from.
func (t *TabulatedPDF) Base() DistPDF { return t.base }

// Support returns [rInner, rOuter]: outside it the density is below the
// tabulation floor. Consumers clamping at ≥ TableFloor may skip all work
// outside this annulus.
func (t *TabulatedPDF) Support() (rInner, rOuter float64) { return t.r0, t.r1 }

// TableFloor returns the constraint floor the support bounds were computed
// against.
func (t *TabulatedPDF) TableFloor() float64 { return t.floor }

// RadialTable exposes the raw samples for consumers that want to inline the
// index arithmetic (the grid filter's hot loop). The returned slice must be
// treated as immutable. nearest reports sampling mode: true means dens[i]
// covers [r0+i·step, r0+(i+1)·step) exactly; false means dens[i] samples
// r0+i·step and intermediate distances interpolate linearly.
func (t *TabulatedPDF) RadialTable() (dens []float64, r0, step float64, nearest bool) {
	return t.dens, t.r0, t.step, t.nearest
}
