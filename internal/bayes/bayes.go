// Package bayes implements the grid-based Bayesian position estimator at
// the heart of CoCoA's cooperative RF localization (Sichitiu & Ramadurai's
// algorithm, Section 2.2 of the paper).
//
// A robot maintains a discretized probability distribution over the
// deployment area. For every received beacon it looks up the distance PDF
// for the observed RSSI and imposes the constraint of Equation (1):
//
//	Constraint(x,y) = PDF_RSSI(d((x,y),(xB,yB)))
//
// then performs the Bayesian update of Equation (2):
//
//	NewPosEst = OldPosEst * Constraint / integral(OldPosEst * Constraint)
//
// After at least MinBeacons beacons, the position estimate is the
// expectation of Equation (3).
//
// # Performance model
//
// ApplyBeacon is the simulation's hot path (10,000 cells per beacon at the
// paper's resolution), and the implementation exploits three observations:
//
//  1. Normalization is a global scale, so it can be lazy: the grid stores
//     an unnormalized belief plus its tracked mass, and readouts divide on
//     demand instead of every beacon paying a second full-grid pass.
//  2. Because the posterior only depends on constraint *ratios*, cells
//     whose constraint equals the floor can simply keep their value: the
//     update multiplies in-support cells by density/floor and touches
//     nothing else. Per-beacon work is proportional to the constraint's
//     support annulus, not the grid.
//  3. Calibrated PDFs carry a radial lookup table with explicit support
//     bounds (caltable.TabulatedPDF); the per-cell density is then a table
//     index instead of an Exp, and the annulus fast path — classically
//     Gaussian-only via the moments — applies to empirical histograms too.
//
// The pre-overhaul eager implementation is retained as applyBeaconEager;
// equivalence tests pin the fast path to it cell-for-cell at 1e-9.
package bayes

import (
	"fmt"
	"math"

	"cocoa/internal/geom"
	"cocoa/internal/telemetry"
)

// DistanceDensity is the consumer-side view of a calibrated distance PDF
// (satisfied by caltable's PDF types).
type DistanceDensity interface {
	Density(d float64) float64
}

// MinBeacons is the paper's threshold: a robot computes its position from
// the estimate only after receiving at least three beacon packets.
const MinBeacons = 3

// constraintFloor caps the confidence of a single beacon: the constraint
// never drives a cell's probability fully to zero, which keeps the
// posterior well-conditioned when beacons disagree (e.g. a deep-faded
// beacon from a nearby robot).
const constraintFloor = 1e-6

// invConstraintFloor converts a floored constraint into the ≥1 ratio the
// lazy update multiplies by.
const invConstraintFloor = 1 / constraintFloor

// Belief mass bounds that trigger an eager renormalization. Ratios are ≥1,
// so mass only grows between renormalizations — by at most the peak
// density over the floor (~4e5 for the sharpest calibrated bins) per
// beacon — and the high bound leaves >150 orders of magnitude of float64
// headroom above the largest single-beacon growth.
const (
	massRenormHigh = 1e120
	massRenormLow  = 1e-120
)

// StatsMode selects how the grid statistics readouts (Estimate, Entropy,
// TotalProbability) are computed.
type StatsMode int

const (
	// StatsIncremental reads running accumulators maintained in place by
	// ApplyBeacon's per-cell writes and rescaled analytically by
	// Renormalize, making the readouts O(touched cells) instead of
	// O(nx·ny). A drift-bounded full re-sum backstop (every
	// statsResumEvery beacons, counted by bayes.stats_resum) keeps the
	// accumulators within 1e-9 of the eager scans.
	StatsIncremental StatsMode = iota
	// StatsEager recomputes every readout with a full-grid scan — the
	// pre-incremental reference semantics, retained as the slow path the
	// equivalence tests check the accumulators against.
	StatsEager
)

// statsResumEvery is the drift bound: after this many ApplyBeacon calls the
// next incremental moment readout re-sums the accumulators from the cells
// (the same contract lazy normalization uses for mass). The floating-point
// drift per beacon is ~1 ulp of the accumulator, so 64 beacons keep the
// incremental readouts many orders of magnitude inside the 1e-9 budget.
const statsResumEvery = 64

// Grid is a discretized position belief over a rectangular area. Cells are
// square with side CellSize. Internally the belief is unnormalized: p sums
// to mass, not 1, and readouts normalize on demand.
type Grid struct {
	area     geom.Rect
	cellSize float64
	nx, ny   int
	p        []float64
	// cx, cy are the precomputed cell-center coordinates, shared by
	// ApplyBeacon, Estimate, and MAP; sumCx, sumCy are their totals, used
	// for the closed-form uniform accumulators on Reset.
	cx, cy       []float64
	sumCx, sumCy float64
	mass         float64
	beacons      int

	// Incremental statistics accumulators (StatsIncremental): the running
	// cell sum and first moments, updated by ApplyBeacon's per-cell
	// writes; statsOps counts beacons since the last full re-sum. The
	// Σp·log p accumulator is maintained lazily — ApplyBeacon only marks
	// it stale (per-cell logs would dominate the annulus loop), and
	// Entropy re-sums on demand, after which Renormalize keeps it fresh
	// analytically.
	statsMode  StatsMode
	sumP       float64 // running Σ p
	sumX, sumY float64 // running Σ p·x, Σ p·y over cell centers
	statsOps   int
	plogp      float64 // Σ p·log p at the last entropy re-sum / rescale
	plogpSum   float64 // Σ p over the same cells, for the entropy identity
	plogpOK    bool

	// ratio is nearestRatios' per-apply buffer of bin multipliers; it is
	// not part of the belief state.
	ratio []float64

	// tel is the grid's run telemetry (see Publish). Reset leaves it
	// alone — Reset starts every window, and the counts span the run.
	tel GridCounts
}

// GridCounts is a grid's run telemetry: applies by density mode, renorms
// forced vs deferred, numerical collapse resets, and incremental-statistics
// re-sums. As a value (see Counts) it outlives the grid's next run.
type GridCounts struct {
	applyNearest, applyLerp, applyGeneric int
	renormTaken, renormDeferred           int
	collapseResets, statsResum            int
}

// maxCells caps a grid's cell count (32 MiB of float64 belief per robot).
const maxCells = 4 << 20

// NewGrid builds a uniform belief over the area with the given cell size
// in meters. The grid dimensions round up to cover the whole area.
func NewGrid(area geom.Rect, cellSize float64) (*Grid, error) {
	if area.Width() <= 0 || area.Height() <= 0 {
		return nil, fmt.Errorf("bayes: degenerate area %+v", area)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("bayes: cell size %v must be positive", cellSize)
	}
	// The cell count is checked in float64, before any int conversion, so
	// an infinite extent or a product beyond int range cannot wrap under
	// the cap.
	fx := math.Ceil(area.Width() / cellSize)
	fy := math.Ceil(area.Height() / cellSize)
	if !(fx*fy <= maxCells) {
		return nil, fmt.Errorf("bayes: grid %gx%g too large", fx, fy)
	}
	nx, ny := int(fx), int(fy)
	g := &Grid{area: area, cellSize: cellSize, nx: nx, ny: ny, p: make([]float64, nx*ny)}
	g.cx = make([]float64, nx)
	for ix := range g.cx {
		g.cx[ix] = area.Min.X + (float64(ix)+0.5)*cellSize
		g.sumCx += g.cx[ix]
	}
	g.cy = make([]float64, ny)
	for iy := range g.cy {
		g.cy[iy] = area.Min.Y + (float64(iy)+0.5)*cellSize
		g.sumCy += g.cy[iy]
	}
	g.Reset()
	return g, nil
}

// SetStatsMode selects the statistics read path; see StatsMode. The grid
// defaults to StatsIncremental.
func (g *Grid) SetStatsMode(m StatsMode) { g.statsMode = m }

// StatsModeOf returns the grid's current statistics mode.
func (g *Grid) StatsModeOf() StatsMode { return g.statsMode }

// Reset returns the belief to uniform — the paper's initial estimate: "in
// the beginning, a robot is equally likely to be in any position in the
// deployment area". The beacon counter is cleared and the statistics
// accumulators take their closed-form uniform values.
func (g *Grid) Reset() {
	u := 1 / float64(len(g.p))
	for i := range g.p {
		g.p[i] = u
	}
	g.mass = 1
	g.beacons = 0

	// Uniform closed forms: Σp = N·u, Σp·x = u·ny·Σcx (each column center
	// appears ny times), and Σp·log p = Σp·log u.
	g.sumP = float64(len(g.p)) * u
	g.sumX = u * float64(g.ny) * g.sumCx
	g.sumY = u * float64(g.nx) * g.sumCy
	g.statsOps = 0
	g.plogpSum = g.sumP
	g.plogp = g.sumP * math.Log(u)
	g.plogpOK = true
}

// Publish adds the grid's counts since NewGrid or ResetTelemetry to reg.
func (g *Grid) Publish(reg *telemetry.Registry) { g.tel.Publish(reg) }

// Counts returns a copy of the grid's counts since NewGrid or
// ResetTelemetry.
func (g *Grid) Counts() GridCounts { return g.tel }

// Add adds o's counts to c.
func (c *GridCounts) Add(o GridCounts) {
	c.applyNearest += o.applyNearest
	c.applyLerp += o.applyLerp
	c.applyGeneric += o.applyGeneric
	c.renormTaken += o.renormTaken
	c.renormDeferred += o.renormDeferred
	c.collapseResets += o.collapseResets
	c.statsResum += o.statsResum
}

// Publish adds the counts to reg.
func (c *GridCounts) Publish(reg *telemetry.Registry) {
	reg.Add("bayes.apply.nearest", c.applyNearest)
	reg.Add("bayes.apply.lerp", c.applyLerp)
	reg.Add("bayes.apply.generic", c.applyGeneric)
	reg.Add("bayes.renorm_taken", c.renormTaken)
	reg.Add("bayes.renorm_deferred", c.renormDeferred)
	reg.Add("bayes.collapse_resets", c.collapseResets)
	reg.Add("bayes.stats_resum", c.statsResum)
}

// ResetTelemetry zeroes the counts, for a grid recycled into a new run.
func (g *Grid) ResetTelemetry() { g.tel = GridCounts{} }

// Dims returns the grid dimensions in cells.
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellSize returns the cell side length in meters.
func (g *Grid) CellSize() float64 { return g.cellSize }

// Area returns the grid's coverage rectangle.
func (g *Grid) Area() geom.Rect { return g.area }

// BeaconCount returns the number of beacons applied since the last Reset.
func (g *Grid) BeaconCount() int { return g.beacons }

// Ready reports whether enough beacons (>= MinBeacons) have been applied
// for the estimate to be trustworthy per the paper's rule.
func (g *Grid) Ready() bool { return g.beacons >= MinBeacons }

// cellCenter returns the center coordinates of cell (ix, iy).
func (g *Grid) cellCenter(ix, iy int) geom.Vec2 {
	return geom.Vec2{X: g.cx[ix], Y: g.cy[iy]}
}

// gaussianMoments is the optional parametric view of a distance PDF that
// unlocks the fast annulus update path for analytic Gaussians.
type gaussianMoments interface {
	Mean() float64
	Std() float64
	IsGaussian() bool
}

// radialTable is the optional tabulated view of a distance PDF (satisfied
// by caltable.TabulatedPDF): raw radial density samples plus explicit
// support bounds. The support is only trusted when the table was built
// against a floor at most as large as ours; otherwise densities above our
// floor could hide outside the declared support.
type radialTable interface {
	RadialTable() (dens []float64, r0, step float64, nearest bool)
	Support() (rInner, rOuter float64)
	TableFloor() float64
}

// ApplyBeacon imposes one beacon's constraint (Equation 1) and folds in the
// Bayesian update of Equation (2) lazily: cells in the constraint's support
// are scaled by density/floor, everything else is untouched, and the belief
// mass is updated incrementally. Renormalization happens on readout, or
// eagerly when the mass approaches the float64 range limits.
func (g *Grid) ApplyBeacon(beaconPos geom.Vec2, pdf DistanceDensity) {
	var (
		dens    []float64
		ratio   []float64
		r0, r1  float64
		invStep float64
		nearest bool
		haveLUT bool
	)
	rInner, rOuter := math.Inf(-1), math.Inf(1)
	if lt, ok := pdf.(radialTable); ok && lt.TableFloor() <= constraintFloor {
		var step float64
		dens, r0, step, nearest = lt.RadialTable()
		rInner, rOuter = lt.Support()
		r1 = rOuter
		invStep = 1 / step
		haveLUT = true
		if nearest {
			ratio = g.nearestRatios(dens)
		}
	} else if m, ok := pdf.(gaussianMoments); ok && m.IsGaussian() {
		// Beyond mu +/- 6 sigma a Gaussian density is below the floor.
		rInner = m.Mean() - 6*m.Std()
		rOuter = m.Mean() + 6*m.Std()
	}
	rInner2 := rInner * rInner
	if rInner < 0 {
		rInner2 = -1 // the inner disk is empty
	}
	rOuter2 := rOuter * rOuter

	bx, by := beaconPos.X, beaconPos.Y
	minX := g.area.Min.X
	bounded := !math.IsInf(rOuter, 1)
	// removed/added track the mass delta exactly as before the incremental
	// statistics existed (the mass arithmetic is pinned bitwise by the
	// eager-stats equivalence); sumDX/sumDY accumulate the first-moment
	// deltas per row so the moment accumulators stay O(touched cells).
	var removed, added, sumDX, sumDY float64
	for iy := 0; iy < g.ny; iy++ {
		dy := g.cy[iy] - by
		dy2 := dy * dy
		if dy2 > rOuter2 {
			continue // the whole row is outside the annulus
		}
		var rowD, rowDX float64
		lo, hi := 0, g.nx
		if bounded {
			// Conservative (+/- one cell) column interval where the row
			// can intersect the outer disk; the kernels' per-cell d² check
			// stays authoritative.
			halfW := math.Sqrt(rOuter2 - dy2)
			lo = int((bx-halfW-minX)/g.cellSize) - 1
			hi = int((bx+halfW-minX)/g.cellSize) + 2
			if lo < 0 {
				lo = 0
			}
			if hi > g.nx {
				hi = g.nx
			}
		}
		// Inner-hole skip: where the row crosses the inner disk, the middle
		// columns satisfy |dx| < sqrt(rInner²-dy²) and would fail the
		// kernels' d² check cell by cell. Conservative (±1 cell) integer
		// bounds excise that run; the per-cell check stays authoritative, so
		// the iteration set shrinks but the touched cells are identical.
		s1, s2 := hi, hi
		if rInner2 > 0 && dy2 < rInner2 {
			halfH := math.Sqrt(rInner2 - dy2)
			hLo := int((bx-halfH-minX)/g.cellSize-0.5) + 2
			hHi := int((bx+halfH-minX)/g.cellSize-0.5) - 1
			if hLo < lo {
				hLo = lo
			}
			if hHi > hi {
				hHi = hi
			}
			if hHi > hLo {
				s1, s2 = hLo, hHi
			}
		}
		row := g.p[iy*g.nx : (iy+1)*g.nx : (iy+1)*g.nx]
		for seg := 0; seg < 2; seg++ {
			start, end := lo, s1
			if seg == 1 {
				start, end = s2, hi
			}
			// A beacon far outside the area yields an empty or inverted
			// interval (hi < lo, even hi < 0), which must stay a no-op.
			if start >= end {
				continue
			}
			// Each density mode runs its own leaf kernel (nearestCells,
			// lerpCells, densityCells): the mode is fixed for the whole
			// call, and only a small function whose state is its arguments
			// keeps the four running sums and the bounds in registers —
			// ApplyBeacon has too many live values for that.
			cells, xs := row[start:end], g.cx[start:end]
			switch {
			case haveLUT && nearest:
				removed, added, rowD, rowDX = nearestCells(cells, xs, ratio,
					bx, dy2, rInner2, rOuter2, r0, r1, invStep, removed, added, rowD, rowDX)
			case haveLUT:
				removed, added, rowD, rowDX = lerpCells(cells, xs, dens,
					bx, dy2, rInner2, rOuter2, r0, r1, invStep, removed, added, rowD, rowDX)
			default:
				removed, added, rowD, rowDX = densityCells(cells, xs, pdf,
					bx, dy2, rInner2, rOuter2, removed, added, rowD, rowDX)
			}
		}
		sumDX += rowDX
		sumDY += rowD * g.cy[iy]
	}

	switch {
	case haveLUT && nearest:
		g.tel.applyNearest++
	case haveLUT:
		g.tel.applyLerp++
	default:
		g.tel.applyGeneric++
	}

	mass := g.mass - removed + added
	if mass <= 0 || math.IsNaN(mass) || math.IsInf(mass, 0) {
		// Numerical collapse: fall back to uniform rather than emit NaNs.
		// Reset restores the closed-form uniform accumulators too.
		g.tel.collapseResets++
		g.Reset()
		g.beacons = 1
		return
	}
	g.mass = mass
	g.sumP = g.sumP - removed + added
	g.sumX += sumDX
	g.sumY += sumDY
	g.statsOps++
	g.plogpOK = false
	g.beacons++
	if mass > massRenormHigh || mass < massRenormLow {
		g.tel.renormTaken++
		g.Renormalize()
	} else {
		g.tel.renormDeferred++
	}
}

// The cell kernels below apply one row segment of a beacon update: cells
// and cx are the segment's belief cells and their column centers (equal
// lengths), dy2 is the row's squared y offset, and the four running sums —
// mass removed and added, and the row's belief delta and its x moment —
// thread through as arguments and results so they stay in registers. Each
// kernel inlines TabulatedPDF.Density expression-for-expression (a density
// above the floor multiplies the cell, anything else leaves it untouched).
// Each cell's floating-point operations and their order are frozen: the
// golden files, results_full.txt and the benchmark's kept seed-0 values
// depend on the exact bits, and TestCalibratedReplayDigest pins them here.

// nearestCells is the nearest-sample kernel (calibrated histograms).
// ratio is nearestRatios' per-bin multiplier, 0 for bins a cell skips.
func nearestCells(cells, cx, ratio []float64, bx, dy2, rInner2, rOuter2, r0, r1, invStep,
	removed, added, rowD, rowDX float64) (float64, float64, float64, float64) {
	cells = cells[:len(cx)]
	last := len(ratio) - 1
	for i, x := range cx {
		dx := x - bx
		d2 := dx*dx + dy2
		if d2 > rOuter2 || d2 < rInner2 {
			continue
		}
		d := math.Sqrt(d2)
		if d < r0 || d >= r1 {
			continue
		}
		j := int((d - r0) * invStep)
		if j > last {
			j = last
		}
		r := ratio[j]
		if r == 0 {
			continue // ratio 1: multiplying would be a bitwise no-op
		}
		old := cells[i]
		nv := old * r
		cells[i] = nv
		removed += old
		added += nv
		dm := nv - old
		rowD += dm
		rowDX += dm * x
	}
	return removed, added, rowD, rowDX
}

// lerpCells is the linearly interpolated kernel (tabulated Gaussians).
func lerpCells(cells, cx, dens []float64, bx, dy2, rInner2, rOuter2, r0, r1, invStep,
	removed, added, rowD, rowDX float64) (float64, float64, float64, float64) {
	cells = cells[:len(cx)]
	last := len(dens) - 1
	for i, x := range cx {
		dx := x - bx
		d2 := dx*dx + dy2
		if d2 > rOuter2 || d2 < rInner2 {
			continue
		}
		d := math.Sqrt(d2)
		if d < r0 || d >= r1 {
			continue
		}
		u := (d - r0) * invStep
		j := int(u)
		var dv float64
		if j >= last {
			dv = dens[last]
		} else {
			dv = dens[j] + (u-float64(j))*(dens[j+1]-dens[j])
		}
		if !(dv > constraintFloor) { // negated so NaN densities also skip
			continue
		}
		old := cells[i]
		nv := old * (dv * invConstraintFloor)
		cells[i] = nv
		removed += old
		added += nv
		dm := nv - old
		rowD += dm
		rowDX += dm * x
	}
	return removed, added, rowD, rowDX
}

// densityCells is the generic kernel: one Density call per candidate cell,
// for PDFs without a trusted radial table.
func densityCells(cells, cx []float64, pdf DistanceDensity, bx, dy2, rInner2, rOuter2,
	removed, added, rowD, rowDX float64) (float64, float64, float64, float64) {
	cells = cells[:len(cx)]
	for i, x := range cx {
		dx := x - bx
		d2 := dx*dx + dy2
		if d2 > rOuter2 || d2 < rInner2 {
			continue
		}
		dv := pdf.Density(math.Sqrt(d2))
		if !(dv > constraintFloor) {
			continue
		}
		old := cells[i]
		nv := old * (dv * invConstraintFloor)
		cells[i] = nv
		removed += old
		added += nv
		dm := nv - old
		rowD += dm
		rowDX += dm * x
	}
	return removed, added, rowD, rowDX
}

// nearestRatios rebuilds the grid's ratio buffer for a nearest-mode table:
// ratio[j] is the multiplier dens[j]*invConstraintFloor a cell in bin j
// takes — the same product the per-cell update would form — and 0 marks a
// bin at or below the floor, or NaN, whose cells stay untouched. The
// buffer is scratch: it grows to the longest table the grid has seen and
// carries nothing from one update to the next.
func (g *Grid) nearestRatios(dens []float64) []float64 {
	if cap(g.ratio) < len(dens) {
		g.ratio = make([]float64, len(dens))
	}
	ratio := g.ratio[:len(dens)]
	for j, dv := range dens {
		ratio[j] = 0
		if dv > constraintFloor {
			ratio[j] = dv * invConstraintFloor
		}
	}
	return ratio
}

// applyBeaconEager is the retained pre-overhaul reference implementation:
// per-cell density evaluation (Gaussian-moments annulus only) followed by
// an eager full-grid renormalization. It exists so every change to the
// fast path can be pinned to the original semantics — the equivalence
// tests require ApplyBeacon to match it cell-for-cell within 1e-9
// relative tolerance for every PDF shape.
func (g *Grid) applyBeaconEager(beaconPos geom.Vec2, pdf DistanceDensity) {
	rInner, rOuter := math.Inf(-1), math.Inf(1)
	if m, ok := pdf.(gaussianMoments); ok && m.IsGaussian() {
		rInner = m.Mean() - 6*m.Std()
		rOuter = m.Mean() + 6*m.Std()
	}
	rInner2 := rInner * rInner
	if rInner < 0 {
		rInner2 = -1
	}
	rOuter2 := rOuter * rOuter

	var sum float64
	i := 0
	for iy := 0; iy < g.ny; iy++ {
		dy := g.cy[iy] - beaconPos.Y
		dy2 := dy * dy
		for ix := 0; ix < g.nx; ix++ {
			dx := g.cx[ix] - beaconPos.X
			d2 := dx*dx + dy2
			c := constraintFloor
			if d2 <= rOuter2 && d2 >= rInner2 {
				if dens := pdf.Density(math.Sqrt(d2)); dens > c {
					c = dens
				}
			}
			g.p[i] *= c
			sum += g.p[i]
			i++
		}
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		g.Reset()
		g.beacons = 1
		return
	}
	inv := 1 / sum
	for j := range g.p {
		g.p[j] *= inv
	}
	g.mass = 1
	g.beacons++
	// The eager path rewrote every cell; re-sum the accumulators from
	// scratch so incremental readouts stay valid after mixed use.
	g.resumMoments()
	g.plogpOK = false
}

// Renormalize rescales the belief so the cells sum to one and the tracked
// mass is exact again. Readouts do not require it — they normalize on the
// fly — but tests and serialization use it to obtain canonical cell
// values, and ApplyBeacon invokes it when the mass nears the float64
// range limits.
func (g *Grid) Renormalize() {
	var s float64
	for _, pi := range g.p {
		s += pi
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		g.Reset()
		return
	}
	inv := 1 / s
	for i := range g.p {
		g.p[i] *= inv
	}
	g.mass = 1
	// A renormalization is a global scale, so the accumulators rescale
	// analytically: Σ(p·inv)·x = inv·Σp·x, and for the entropy pair
	// Σ(p·inv)·log(p·inv) = inv·Σp·log p + inv·log(inv)·Σp. The per-cell
	// rounding this glosses over is exactly the drift the re-sum backstop
	// bounds.
	g.sumP = s * inv
	g.sumX *= inv
	g.sumY *= inv
	if g.plogpOK {
		g.plogp = inv*g.plogp + inv*math.Log(inv)*g.plogpSum
		g.plogpSum *= inv
	}
}

// resumMoments recomputes the cell-sum and first-moment accumulators from
// the cells, clearing the drift counter. The scan mirrors the eager
// Estimate's row-sum structure so both paths round alike.
func (g *Grid) resumMoments() {
	var sp, sx, sy float64
	i := 0
	for iy := 0; iy < g.ny; iy++ {
		var rowSum float64
		for ix := 0; ix < g.nx; ix++ {
			pi := g.p[i]
			sx += pi * g.cx[ix]
			rowSum += pi
			i++
		}
		sy += rowSum * g.cy[iy]
		sp += rowSum
	}
	g.sumP, g.sumX, g.sumY = sp, sx, sy
	g.statsOps = 0
}

// resumPlogp recomputes the entropy accumulator pair from the cells.
func (g *Grid) resumPlogp() {
	var pl, ps float64
	for _, pi := range g.p {
		if pi > 0 {
			pl += pi * math.Log(pi)
			ps += pi
		}
	}
	g.plogp, g.plogpSum, g.plogpOK = pl, ps, true
}

// Estimate returns the posterior-mean position (Equation 3), normalizing
// on the fly. In StatsIncremental mode it reads the running accumulators
// (O(touched cells) since the last re-sum); StatsEager recomputes the sums
// with a full-grid scan.
func (g *Grid) Estimate() geom.Vec2 {
	if g.statsMode == StatsEager {
		return g.estimateEager()
	}
	if g.statsOps >= statsResumEvery ||
		math.IsNaN(g.sumX) || math.IsInf(g.sumX, 0) ||
		math.IsNaN(g.sumY) || math.IsInf(g.sumY, 0) {
		g.tel.statsResum++
		g.resumMoments()
	}
	tot := g.sumP
	if tot <= 0 || math.IsNaN(tot) || math.IsInf(tot, 0) {
		return g.area.Center()
	}
	return geom.Vec2{X: g.sumX / tot, Y: g.sumY / tot}
}

// estimateEager is the retained full-scan reference for Estimate.
func (g *Grid) estimateEager() geom.Vec2 {
	var ex, ey, tot float64
	i := 0
	for iy := 0; iy < g.ny; iy++ {
		cyw := g.cy[iy]
		var rowSum float64
		for ix := 0; ix < g.nx; ix++ {
			pi := g.p[i]
			ex += pi * g.cx[ix]
			rowSum += pi
			i++
		}
		ey += rowSum * cyw
		tot += rowSum
	}
	if tot <= 0 || math.IsNaN(tot) || math.IsInf(tot, 0) {
		return g.area.Center()
	}
	return geom.Vec2{X: ex / tot, Y: ey / tot}
}

// MAP returns the highest-probability cell center, an alternative point
// estimate exposed for diagnostics and the examples. It is scale-free, so
// lazy normalization needs no extra work here. Ties break toward the
// lowest cell index — the first maximal cell in row-major scan order wins —
// and that order is part of the contract (pinned by TestMAPTieBreak) so
// alternative read paths cannot silently change diagnostics.
func (g *Grid) MAP() geom.Vec2 {
	best, bi := -1.0, 0
	for i, pi := range g.p {
		if pi > best {
			best, bi = pi, i
		}
	}
	return g.cellCenter(bi%g.nx, bi/g.nx)
}

// ProbabilityAt returns the normalized cell probability covering point pt,
// for tests and visualization. Points outside the area return 0, as does a
// belief whose tracked mass is zero or non-finite (the same degenerate
// states Estimate guards against).
func (g *Grid) ProbabilityAt(pt geom.Vec2) float64 {
	if !g.area.Contains(pt) {
		return 0
	}
	if g.mass <= 0 || math.IsNaN(g.mass) || math.IsInf(g.mass, 0) {
		return 0
	}
	ix := int((pt.X - g.area.Min.X) / g.cellSize)
	iy := int((pt.Y - g.area.Min.Y) / g.cellSize)
	if ix >= g.nx {
		ix = g.nx - 1
	}
	if iy >= g.ny {
		iy = g.ny - 1
	}
	return g.p[iy*g.nx+ix] / g.mass
}

// Entropy returns the Shannon entropy of the normalized belief in nats — a
// measure of how concentrated the estimate is; uniform beliefs maximize it.
// A zero or non-finite tracked mass means the belief carries no usable
// information, so the guard returns the uniform maximum log(N) instead of
// propagating NaN/Inf. In StatsIncremental mode the entropy comes from the
// Σp·log p accumulator via H = (Σp·log M − Σp·log p)/M, re-summed on first
// use after any beacon (ApplyBeacon marks it stale rather than paying two
// logs per touched cell).
func (g *Grid) Entropy() float64 {
	if g.mass <= 0 || math.IsNaN(g.mass) || math.IsInf(g.mass, 0) {
		return math.Log(float64(len(g.p)))
	}
	if g.statsMode == StatsEager {
		return g.entropyEager()
	}
	if !g.plogpOK {
		g.tel.statsResum++
		g.resumPlogp()
	}
	return (g.plogpSum*math.Log(g.mass) - g.plogp) / g.mass
}

// entropyEager is the retained full-scan reference for Entropy.
func (g *Grid) entropyEager() float64 {
	inv := 1 / g.mass
	var h float64
	for _, pi := range g.p {
		if q := pi * inv; q > 0 {
			h -= q * math.Log(q)
		}
	}
	return h
}

// TotalProbability returns the normalized belief mass: the cell sum over
// the tracked mass. It is ~1 up to the accumulation drift of the lazy
// updates; exposed for invariant tests. StatsIncremental reads the running
// cell-sum accumulator; StatsEager re-sums the cells.
func (g *Grid) TotalProbability() float64 {
	if g.statsMode == StatsEager {
		return g.totalProbabilityEager()
	}
	if g.statsOps >= statsResumEvery {
		g.tel.statsResum++
		g.resumMoments()
	}
	return g.sumP / g.mass
}

// totalProbabilityEager is the retained full-scan reference for
// TotalProbability.
func (g *Grid) totalProbabilityEager() float64 {
	var s float64
	for _, pi := range g.p {
		s += pi
	}
	return s / g.mass
}
