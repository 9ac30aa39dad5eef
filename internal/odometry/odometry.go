// Package odometry implements the paper's dead-reckoning model: the robot
// integrates noisy wheel-encoder displacement and heading measurements to
// maintain a position estimate. Both error sources follow the paper's
// simulation model:
//
//   - displacement error: zero-mean Gaussian, standard deviation 0.1 m/s;
//   - angular error: zero-mean Gaussian, standard deviation 10 degrees,
//     incurred whenever the robot turns.
//
// Heading errors accumulate as a random walk over turns (Figure 5), which
// is why odometry-only localization diverges past 100 m within half an
// hour (Figure 4).
package odometry

import (
	"fmt"
	"math"

	"cocoa/internal/geom"
)

// Config holds the error-model parameters.
type Config struct {
	// DispSigmaPerSec is the displacement error standard deviation in
	// meters per second of travel (paper: 0.1 m/s).
	DispSigmaPerSec float64
	// AngleSigmaRad is the per-turn heading error standard deviation in
	// radians (paper: 10 degrees).
	AngleSigmaRad float64
	// TurnThresholdRad is the smallest true heading change registered as
	// a turn.
	TurnThresholdRad float64
	// HeadingDriftRadPerSqrtS is the gyro-style heading random walk: the
	// heading estimate additionally drifts by N(0, drift*sqrt(dt)) per
	// step while moving. The paper's Figure 4 error magnitudes (>100 m
	// after 30 minutes for both speeds) require this continuous component
	// on top of the per-turn error; see DESIGN.md.
	HeadingDriftRadPerSqrtS float64
}

// DefaultConfig returns the paper's odometry error parameters.
func DefaultConfig() Config {
	return Config{
		DispSigmaPerSec:         0.1,
		AngleSigmaRad:           geom.Radians(10),
		TurnThresholdRad:        geom.Radians(1),
		HeadingDriftRadPerSqrtS: geom.Radians(2.2),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.DispSigmaPerSec < 0 || c.AngleSigmaRad < 0 || c.TurnThresholdRad < 0 ||
		c.HeadingDriftRadPerSqrtS < 0 {
		return fmt.Errorf("odometry: negative sigma or threshold: %+v", c)
	}
	return nil
}

// noiseSource is the subset of sim.RNG the dead reckoner draws from.
type noiseSource interface {
	Normal(mean, stddev float64) float64
}

// DeadReckoner integrates noisy motion measurements into a position
// estimate. Feed it the robot's true per-step displacement; it applies the
// error model and accumulates the estimated pose.
type DeadReckoner struct {
	cfg Config
	rng noiseSource

	est         geom.Vec2
	headingBias float64
	lastHeading float64
	moved       bool
}

// NewDeadReckoner builds a reckoner whose initial estimate is est (the
// paper provides odometry-only robots with their true initial position).
func NewDeadReckoner(cfg Config, rng noiseSource, est geom.Vec2) (*DeadReckoner, error) {
	d := new(DeadReckoner)
	if err := d.Init(cfg, rng, est); err != nil {
		return nil, err
	}
	return d, nil
}

// Init rewinds d, in place, to the reckoner NewDeadReckoner returns.
func (d *DeadReckoner) Init(cfg Config, rng noiseSource, est geom.Vec2) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*d = DeadReckoner{cfg: cfg, rng: rng, est: est}
	return nil
}

// Step consumes the true displacement over the last dt seconds and updates
// the estimate with measurement noise. Steps with (near) zero displacement
// leave the estimate unchanged: stationary odometers do not drift.
func (d *DeadReckoner) Step(trueDelta geom.Vec2, dt float64) {
	d.StepScaled(trueDelta, dt, 1)
}

// StepScaled is Step with every noise sigma multiplied by noiseScale for
// this step — the hook the terrain model uses to degrade odometry on
// rough ground (the paper's "uneven surfaces" concern).
func (d *DeadReckoner) StepScaled(trueDelta geom.Vec2, dt, noiseScale float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("odometry: non-positive dt %v", dt))
	}
	if noiseScale < 0 {
		panic(fmt.Sprintf("odometry: negative noise scale %v", noiseScale))
	}
	dist := trueDelta.Len()
	if dist < 1e-12 {
		return
	}
	heading := trueDelta.Heading()
	if !d.moved {
		d.moved = true
		d.lastHeading = heading
	} else if math.Abs(geom.AngleDiff(d.lastHeading, heading)) > d.cfg.TurnThresholdRad {
		// A turn: the gyro/encoder heading measurement carries fresh
		// Gaussian error that persists until the next turn.
		d.headingBias += d.rng.Normal(0, noiseScale*d.cfg.AngleSigmaRad)
		d.lastHeading = heading
	}
	// Continuous gyro drift while moving.
	if d.cfg.HeadingDriftRadPerSqrtS > 0 {
		d.headingBias += d.rng.Normal(0, noiseScale*d.cfg.HeadingDriftRadPerSqrtS*math.Sqrt(dt))
	}
	measured := dist + d.rng.Normal(0, noiseScale*d.cfg.DispSigmaPerSec*dt)
	if measured < 0 {
		measured = 0
	}
	d.est = d.est.Add(geom.FromPolar(measured, heading+d.headingBias))
}

// Estimate returns the current dead-reckoned position estimate.
func (d *DeadReckoner) Estimate() geom.Vec2 { return d.est }

// Reset replaces the position estimate only. The accumulated heading bias
// is retained: a bare position fix does not recalibrate the robot's
// heading sensor.
func (d *DeadReckoner) Reset(est geom.Vec2) { d.est = est }

// Reanchor discards the whole dead-reckoning state and restarts from est:
// position, heading bias, and turn tracking. This is CoCoA's semantics —
// the paper's robots "throw away their currently estimated positions" at
// each transmit period, restarting odometry from the fresh RF fix.
func (d *DeadReckoner) Reanchor(est geom.Vec2) {
	d.est = est
	d.headingBias = 0
	d.moved = false
	d.lastHeading = 0
}

// HeadingBias returns the accumulated heading error in radians, exposed
// for tests and diagnostics.
func (d *DeadReckoner) HeadingBias() float64 { return d.headingBias }
