// Package coopos implements the Cooperative Positioning baseline of
// Kurazume, Nagata and Hirose (ICRA 1994), the classic alternative the
// paper's related work describes: no robot carries a localization device;
// instead the team splits into two groups that alternate roles. While one
// group moves (dead-reckoning with odometry), the other stays put and acts
// as landmarks; at the end of each phase the movers re-fix their positions
// by ranging off the landmarks' *estimated* positions, then the roles
// swap. As the paper notes, "obviously this adds accumulated errors" —
// every fix inherits the landmarks' own drift, so unlike CoCoA the error
// grows without bound. This package quantifies that comparison.
//
// The exchange of range measurements at phase boundaries is modeled at the
// protocol level (direct calibrated-RSSI sampling between stationary
// robots) rather than through the contention MAC: the baseline's error
// dynamics are governed by the geometry and the ranging noise, not by
// channel contention among a handful of stationary nodes.
package coopos

import (
	"context"
	"fmt"
	"math"

	"cocoa/internal/bayes"
	"cocoa/internal/caltable"
	"cocoa/internal/geom"
	"cocoa/internal/mobility"
	"cocoa/internal/odometry"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

// Config describes one Cooperative Positioning run.
type Config struct {
	// NumRobots is the team size, split evenly into the two role groups.
	NumRobots int
	// Area is the deployment area.
	Area geom.Rect
	// VMax is the movers' maximum speed (speeds drawn as in the paper's
	// movement model).
	VMax float64
	// PhaseS is the movement-phase length before roles swap.
	PhaseS sim.Time
	// DurationS is the run length.
	DurationS sim.Time
	// SampleIntervalS is the metric cadence.
	SampleIntervalS sim.Time
	// GridCellM is the trilateration grid resolution.
	GridCellM float64
	// MaxRangeM is the ranging radius; landmarks beyond it contribute no
	// measurement.
	MaxRangeM float64
	// Seed drives all randomness.
	Seed int64

	// Radio, Odometry and Calibration default when zero-valued.
	Radio       radio.Model
	Odometry    odometry.Config
	Calibration caltable.Options
}

// DefaultConfig mirrors the CoCoA evaluation scale so the two systems are
// directly comparable.
func DefaultConfig() Config {
	return Config{
		NumRobots:       50,
		Area:            geom.Square(200),
		VMax:            2.0,
		PhaseS:          50,
		DurationS:       1800,
		SampleIntervalS: 1,
		GridCellM:       2,
		MaxRangeM:       160,
		Seed:            1,
		Radio:           radio.DefaultModel(),
		Odometry:        odometry.DefaultConfig(),
		Calibration:     caltable.DefaultOptions(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumRobots < 6:
		return fmt.Errorf("coopos: need at least 6 robots (3 landmarks per group)")
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("coopos: degenerate area")
	case c.VMax <= 0.1:
		return fmt.Errorf("coopos: VMax must exceed 0.1 m/s")
	case c.PhaseS <= 0:
		return fmt.Errorf("coopos: PhaseS must be positive")
	case c.DurationS <= 0:
		return fmt.Errorf("coopos: DurationS must be positive")
	case c.SampleIntervalS <= 0:
		return fmt.Errorf("coopos: SampleIntervalS must be positive")
	case c.GridCellM <= 0:
		return fmt.Errorf("coopos: GridCellM must be positive")
	case c.MaxRangeM <= 0:
		return fmt.Errorf("coopos: MaxRangeM must be positive")
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if err := c.Odometry.Validate(); err != nil {
		return err
	}
	return c.Calibration.Validate()
}

// Result holds the baseline's measurements in the same shape as a CoCoA
// run, so figures can overlay them.
type Result struct {
	Times    []float64
	AvgError []float64
	Fixes    int
	NoFixes  int // phase boundaries where a mover saw <3 landmarks
}

// MeanError returns the time-averaged team error.
func (r *Result) MeanError() float64 {
	if len(r.AvgError) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range r.AvgError {
		s += v
	}
	return s / float64(len(r.AvgError))
}

// FinalError returns the last sampled team error.
func (r *Result) FinalError() float64 {
	if len(r.AvgError) == 0 {
		return math.NaN()
	}
	return r.AvgError[len(r.AvgError)-1]
}

// cpRobot is one baseline team member.
type cpRobot struct {
	way   *mobility.Waypoint
	reck  *odometry.DeadReckoner
	est   geom.Vec2
	group int
}

// Run executes the Cooperative Positioning baseline. Canceling ctx stops
// the run at its next sampling step and returns ctx.Err(); the check reads
// no randomness, so an uncanceled run is the same under any context.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	table, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	chanRng := root.Stream("channel")

	mobCfg := mobility.Config{Area: cfg.Area, VMin: 0.1, VMax: cfg.VMax}
	robots := make([]*cpRobot, cfg.NumRobots)
	for i := range robots {
		way, err := mobility.NewWaypoint(mobCfg, root.StreamN("mobility", i))
		if err != nil {
			return nil, err
		}
		start := way.Position(0)
		reck, err := odometry.NewDeadReckoner(cfg.Odometry, root.StreamN("odometry", i), start)
		if err != nil {
			return nil, err
		}
		robots[i] = &cpRobot{way: way, reck: reck, est: start, group: i % 2}
	}

	grid, err := bayes.NewGrid(cfg.Area, cfg.GridCellM)
	if err != nil {
		return nil, err
	}
	// The baseline's grid work is published like a CoCoA run's.
	defer func() {
		if telemetry.Default.Enabled() {
			grid.Publish(telemetry.Default)
		}
	}()

	res := &Result{}
	dt := float64(cfg.SampleIntervalS)
	phase := 0
	nextSwap := cfg.PhaseS
	lastPos := make([]geom.Vec2, len(robots))
	for i, r := range robots {
		lastPos[i] = r.way.Position(0)
		// Group 1 holds first while group 0 moves.
		if r.group != phase%2 {
			r.way.HoldUntil(0, nextSwap)
		}
	}

	for now := dt; now <= float64(cfg.DurationS); now += dt {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advance movement and dead reckoning.
		for i, r := range robots {
			cur := r.way.Position(now)
			r.reck.Step(cur.Sub(lastPos[i]), dt)
			lastPos[i] = cur
			r.est = r.reck.Estimate()
		}

		// Phase boundary: movers fix off the stationary group, then swap.
		if now >= float64(nextSwap) {
			movers := phase % 2
			fixMovers(cfg, robots, movers, now, grid, table, chanRng, res)
			phase++
			nextSwap += cfg.PhaseS
			for _, r := range robots {
				if r.group != phase%2 {
					// New landmarks: park where they are.
					r.way.HoldUntil(now, nextSwap)
				} else {
					// New movers resume; ensure any residual hold ends.
					r.way.HoldUntil(now, now)
				}
			}
		}

		// Sample team error.
		var sum float64
		for i, r := range robots {
			sum += r.est.Dist(lastPos[i])
		}
		res.Times = append(res.Times, now)
		res.AvgError = append(res.AvgError, sum/float64(len(robots)))
	}
	return res, nil
}

// fixMovers re-localizes every robot in the moving group by ranging off
// the stationary group's estimated positions.
func fixMovers(cfg Config, robots []*cpRobot, movers int, now float64,
	grid *bayes.Grid, table *caltable.Table, chanRng *sim.RNG, res *Result) {
	for _, r := range robots {
		if r.group != movers {
			continue
		}
		grid.Reset()
		truePos := r.way.Position(now)
		applied := 0
		for _, lm := range robots {
			if lm.group == movers {
				continue
			}
			d := truePos.Dist(lm.way.Position(now))
			if d > cfg.MaxRangeM {
				continue
			}
			rssi := cfg.Radio.SampleRSSI(d, chanRng)
			pdf, ok := table.Lookup(rssi)
			if !ok {
				continue
			}
			// The landmark advertises its own (drifted) estimate, not
			// its true position: this is where Cooperative Positioning
			// accumulates error.
			grid.ApplyBeacon(lm.est, pdf)
			applied++
		}
		if applied >= bayes.MinBeacons {
			fix := grid.Estimate()
			r.est = fix
			r.reck.Reanchor(fix)
			res.Fixes++
		} else {
			res.NoFixes++
		}
	}
}
