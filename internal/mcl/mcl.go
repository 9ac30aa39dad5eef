// Package mcl implements Monte Carlo localization (a particle filter) as
// an alternative RF localization backend for CoCoA. The paper's related
// work discusses Monte Carlo localization (Fox et al.) and stresses that
// "CoCoA is not tied to a specific localization technique ... other
// approaches could be integrated in CoCoA as well"; this package is that
// integration: it consumes the same calibrated RSSI distance PDFs as the
// grid estimator and plugs into the same coordination timeline.
package mcl

import (
	"fmt"
	"math"

	"cocoa/internal/bayes"
	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// Config parameterizes the particle filter.
type Config struct {
	// Particles is the sample count; more particles cost CPU linearly
	// and improve the posterior approximation.
	Particles int
	// Area is the deployment area the uniform prior covers.
	Area geom.Rect
	// ResampleESSFrac triggers systematic resampling when the effective
	// sample size falls below this fraction of Particles.
	ResampleESSFrac float64
	// JitterM is the roughening noise added after resampling so the
	// particle set does not collapse to duplicates.
	JitterM float64
}

// DefaultConfig returns a filter configuration suited to the paper's
// 200 m x 200 m deployment area.
func DefaultConfig(area geom.Rect) Config {
	return Config{
		Particles:       2000,
		Area:            area,
		ResampleESSFrac: 0.5,
		JitterM:         1.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Particles <= 0:
		return fmt.Errorf("mcl: Particles must be positive")
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("mcl: degenerate area")
	case c.ResampleESSFrac <= 0 || c.ResampleESSFrac > 1:
		return fmt.Errorf("mcl: ResampleESSFrac %v out of (0,1]", c.ResampleESSFrac)
	case c.JitterM < 0:
		return fmt.Errorf("mcl: negative jitter")
	}
	return nil
}

// weightFloor mirrors the grid estimator's constraint floor: one beacon
// can never zero a particle outright, keeping the filter robust to
// deep-faded observations.
const weightFloor = 1e-6

// Filter is a particle-filter position estimator. It satisfies the same
// estimator contract as bayes.Grid and slots into the CoCoA robot
// unchanged.
type Filter struct {
	cfg Config
	rng *sim.RNG

	xs, ys  []float64
	ws      []float64
	beacons int
}

// New builds a filter with a uniform prior over the area.
func New(cfg Config, rng *sim.RNG) (*Filter, error) {
	f := new(Filter)
	if err := f.Init(cfg, rng); err != nil {
		return nil, err
	}
	return f, nil
}

// Init rewinds f, in place, to the filter New returns, reusing its
// particle buffers when they are large enough (Reset overwrites every
// particle and weight).
func (f *Filter) Init(cfg Config, rng *sim.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*f = Filter{
		cfg: cfg,
		rng: rng,
		xs:  resize(f.xs, cfg.Particles),
		ys:  resize(f.ys, cfg.Particles),
		ws:  resize(f.ws, cfg.Particles),
	}
	f.Reset()
	return nil
}

// resize returns b cut to n elements, or a new slice if b is too small.
func resize(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// Reset scatters the particles uniformly — the paper's "equally likely to
// be in any position" initial estimate — and clears the beacon counter.
func (f *Filter) Reset() {
	for i := range f.xs {
		f.xs[i] = f.rng.Uniform(f.cfg.Area.Min.X, f.cfg.Area.Max.X)
		f.ys[i] = f.rng.Uniform(f.cfg.Area.Min.Y, f.cfg.Area.Max.Y)
		f.ws[i] = 1 / float64(len(f.ws))
	}
	f.beacons = 0
}

// BeaconCount returns the beacons applied since the last Reset.
func (f *Filter) BeaconCount() int { return f.beacons }

// Ready reports whether the paper's >=3 beacon rule is met.
func (f *Filter) Ready() bool { return f.beacons >= bayes.MinBeacons }

// ApplyBeacon reweights the particles by the beacon's distance likelihood
// (Equation 1's constraint, evaluated at particle positions) and resamples
// when the effective sample size degenerates.
func (f *Filter) ApplyBeacon(beaconPos geom.Vec2, pdf bayes.DistanceDensity) {
	var sum float64
	for i := range f.xs {
		dx := f.xs[i] - beaconPos.X
		dy := f.ys[i] - beaconPos.Y
		like := pdf.Density(math.Sqrt(dx*dx + dy*dy))
		if like < weightFloor {
			like = weightFloor
		}
		f.ws[i] *= like
		sum += f.ws[i]
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		f.Reset()
		f.beacons = 1
		return
	}
	var ess float64
	inv := 1 / sum
	for i := range f.ws {
		f.ws[i] *= inv
		ess += f.ws[i] * f.ws[i]
	}
	f.beacons++
	if 1/ess < f.cfg.ResampleESSFrac*float64(len(f.ws)) {
		f.resample()
	}
}

// resample performs systematic resampling followed by roughening jitter.
func (f *Filter) resample() {
	n := len(f.ws)
	nxs := make([]float64, n)
	nys := make([]float64, n)
	step := 1 / float64(n)
	u := f.rng.Uniform(0, step)
	var cum float64
	j := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for cum+f.ws[j] < target && j < n-1 {
			cum += f.ws[j]
			j++
		}
		nxs[i] = f.xs[j] + f.rng.Normal(0, f.cfg.JitterM)
		nys[i] = f.ys[j] + f.rng.Normal(0, f.cfg.JitterM)
		p := f.cfg.Area.Clamp(geom.Vec2{X: nxs[i], Y: nys[i]})
		nxs[i], nys[i] = p.X, p.Y
	}
	f.xs, f.ys = nxs, nys
	w := step
	for i := range f.ws {
		f.ws[i] = w
	}
}

// Estimate returns the weighted particle mean (the analogue of Equation
// 3's posterior expectation).
func (f *Filter) Estimate() geom.Vec2 {
	var ex, ey float64
	for i := range f.xs {
		ex += f.ws[i] * f.xs[i]
		ey += f.ws[i] * f.ys[i]
	}
	return geom.Vec2{X: ex, Y: ey}
}

// ESS returns the current effective sample size, for diagnostics.
func (f *Filter) ESS() float64 {
	var s float64
	for _, w := range f.ws {
		s += w * w
	}
	if s == 0 {
		return 0
	}
	return 1 / s
}
