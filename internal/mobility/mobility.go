// Package mobility implements the paper's robot movement model: as the
// simulation starts each robot is given a random command to move to a
// random destination in the deployment area at a speed chosen uniformly
// between 0.1 m/s and vmax; on arrival it receives a new random command.
// An optional rest period at each destination models the robot performing
// a task there; MRMM's mesh pruning consumes the resulting mobility
// knowledge (destination, speed, rest time).
package mobility

import (
	"fmt"

	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// Config parameterizes the waypoint model.
type Config struct {
	// Area is the deployment area (paper: 40000 m^2).
	Area geom.Rect
	// VMin and VMax bound the uniformly drawn leg speed in m/s
	// (paper: 0.1 .. vmax with vmax in {0.5, 2.0}).
	VMin float64
	VMax float64
	// RestMin and RestMax bound the uniformly drawn pause at each
	// destination, in seconds. Zero models continuous movement.
	RestMin sim.Time
	RestMax sim.Time
}

// DefaultConfig returns the paper's movement parameters for the given
// maximum speed.
func DefaultConfig(vmax float64) Config {
	return Config{
		Area: geom.Square(200),
		VMin: 0.1,
		VMax: vmax,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("mobility: degenerate area %+v", c.Area)
	case c.VMin <= 0 || c.VMax < c.VMin:
		return fmt.Errorf("mobility: bad speed range [%v, %v]", c.VMin, c.VMax)
	case c.RestMin < 0 || c.RestMax < c.RestMin:
		return fmt.Errorf("mobility: bad rest range [%v, %v]", c.RestMin, c.RestMax)
	}
	return nil
}

// Leg is one closed-form piece of a trajectory: for From <= t < Until the
// robot is at At(t), a straight line at constant speed from Origin. A rest
// is a zero-speed leg.
type Leg struct {
	Origin geom.Vec2
	Dir    geom.Vec2 // unit direction of travel; zero for a rest
	Speed  float64   // m/s; zero for a rest
	From   sim.Time  // when the robot was at Origin
	Until  sim.Time  // the arrival, or the end of the rest
}

// At returns the position at t, for From <= t < Until. Waypoint evaluates
// its own mid-leg positions through this very method, so a leg held by
// another party reproduces the Waypoint's positions bit for bit.
func (l *Leg) At(t sim.Time) geom.Vec2 {
	return l.Origin.Add(l.Dir.Scale(l.Speed * (t - l.From)))
}

// Waypoint is one robot's movement process. It is advanced lazily: callers
// ask for the position at a virtual time and the model replays any leg
// completions and new commands in between. Times must be non-decreasing.
//
// Positions are computed analytically from the current leg's origin
// (origin + direction * speed * elapsed), never accumulated across
// queries, so the trajectory is a pure function of the RNG stream and the
// query times' leg crossings: observing a robot's position at extra
// instants cannot perturb where it later is, to the last bit. Two consumers
// rely on this. The MAC's spatial index skips position queries for pruned
// receivers, and the MAC's per-station leg cache (Motion) evaluates a leg
// itself until it expires instead of asking the robot; neither may change
// the robots' paths (DESIGN.md §12).
type Waypoint struct {
	cfg Config
	rng *sim.RNG

	pos   geom.Vec2
	lastT sim.Time
	// move is the current command's leg, frozen when the command is
	// issued: origin, unit direction, speed, start time, and arrival time
	// (Until). Its constants are pure functions of (origin, dest, speed,
	// start), which are immutable for the leg's lifetime, so freezing them
	// cannot change any position bit — it only hoists a sqrt and a division
	// out of every mid-leg query.
	move      Leg
	dest      geom.Vec2
	restUntil sim.Time
	resting   bool
	legs      int
}

// NewWaypoint builds a movement process starting at a uniformly random
// position with its first command already issued.
func NewWaypoint(cfg Config, rng *sim.RNG) (*Waypoint, error) {
	w := new(Waypoint)
	if err := w.Init(cfg, rng); err != nil {
		return nil, err
	}
	return w, nil
}

// Init rewinds w, in place, to the movement process NewWaypoint returns.
func (w *Waypoint) Init(cfg Config, rng *sim.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*w = Waypoint{cfg: cfg, rng: rng}
	w.pos = w.randomPoint()
	w.newCommand()
	return nil
}

// NewWaypointAt is NewWaypoint with a caller-chosen start position.
func NewWaypointAt(cfg Config, rng *sim.RNG, start geom.Vec2) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Waypoint{cfg: cfg, rng: rng, pos: cfg.Area.Clamp(start)}
	w.newCommand()
	return w, nil
}

func (w *Waypoint) randomPoint() geom.Vec2 {
	return geom.Vec2{
		X: w.rng.Uniform(w.cfg.Area.Min.X, w.cfg.Area.Max.X),
		Y: w.rng.Uniform(w.cfg.Area.Min.Y, w.cfg.Area.Max.Y),
	}
}

// newCommand issues the next random movement command, anchoring the new
// leg at the robot's current position and time.
func (w *Waypoint) newCommand() {
	origin := w.pos
	w.dest = w.randomPoint()
	speed := w.rng.Uniform(w.cfg.VMin, w.cfg.VMax)
	w.resting = false
	w.legs++

	// Freeze the leg constants. The unit vector reuses the leg length d:
	// Dist and Len share the same radicand (negation is exact), so dividing
	// by d is bit-identical to Unit() and saves its second square root.
	// d == 0 legs never read Dir — arrival fires immediately.
	d := origin.Dist(w.dest)
	v := w.dest.Sub(origin)
	w.move = Leg{
		Origin: origin,
		Dir:    geom.Vec2{X: v.X / d, Y: v.Y / d},
		Speed:  speed,
		From:   w.lastT,
		Until:  w.lastT + sim.Time(d/speed),
	}
}

// Position returns the robot's true position at time now, advancing the
// model. now must not precede a previously queried time.
func (w *Waypoint) Position(now sim.Time) geom.Vec2 {
	w.advance(now)
	return w.pos
}

// Motion is Position plus the leg the robot is on at now: leg.At(t) equals
// Position(t) bit for bit for every t in [now, leg.Until), so a caller may
// evaluate the leg itself until it expires. A moving robot's leg ends at
// its arrival; a resting robot's is a zero-speed leg ending with the rest.
// HoldUntil bends the trajectory early and voids any leg read before it.
func (w *Waypoint) Motion(now sim.Time) (geom.Vec2, Leg) {
	w.advance(now)
	if w.resting {
		return w.pos, Leg{Origin: w.pos, From: now, Until: w.restUntil}
	}
	return w.pos, w.move
}

// advance replays movement up to now.
func (w *Waypoint) advance(now sim.Time) {
	if now < w.lastT {
		panic(fmt.Sprintf("mobility: time went backwards: %v < %v", now, w.lastT))
	}
	for w.lastT < now {
		if w.resting {
			if now < w.restUntil {
				w.lastT = now
				return
			}
			w.lastT = w.restUntil
			w.newCommand()
			continue
		}
		// The leg's arrival time depends only on its origin, destination,
		// and speed — never on where along it the robot was last observed.
		if w.move.Until <= now {
			w.pos = w.dest
			w.lastT = w.move.Until
			rest := w.rng.Uniform(w.cfg.RestMin, w.cfg.RestMax)
			if rest > 0 {
				w.resting = true
				w.restUntil = w.lastT + rest
			} else {
				w.newCommand()
			}
			continue
		}
		// Mid-leg: recompute analytically from the frozen leg constants
		// (see newCommand). The leg has nonzero length, or its arrival
		// would have fired above.
		w.pos = w.move.At(now)
		w.lastT = now
	}
}

// Velocity returns the robot's current velocity vector at the last advanced
// time (zero while resting or upon arrival).
func (w *Waypoint) Velocity() geom.Vec2 {
	if w.resting || w.pos == w.dest {
		return geom.Vec2{}
	}
	// The frozen unit direction is bit-identical to Unit() (see newCommand).
	return w.move.Dir.Scale(w.move.Speed)
}

// Heading returns the current movement heading in radians.
func (w *Waypoint) Heading() float64 { return w.Velocity().Heading() }

// Destination returns the current movement target — part of the mobility
// knowledge MRMM exploits.
func (w *Waypoint) Destination() geom.Vec2 { return w.dest }

// Speed returns the current commanded speed in m/s.
func (w *Waypoint) Speed() float64 { return w.move.Speed }

// RestRemaining returns how much longer the robot will rest at its current
// position (zero when moving): the paper's d_rest.
func (w *Waypoint) RestRemaining(now sim.Time) sim.Time {
	if !w.resting || now >= w.restUntil {
		return 0
	}
	return w.restUntil - now
}

// Legs returns the number of movement commands issued so far.
func (w *Waypoint) Legs() int { return w.legs }

// HoldUntil commands the robot to stop where it is (as of now) and stay
// put until the given time, after which normal waypoint movement resumes
// with a fresh command. Cooperative-positioning schemes use this to park
// half the team as landmarks. Holding an already-resting robot extends
// its rest. A leg read through Motion before the hold no longer describes
// the robot: whoever caches one must read it again.
func (w *Waypoint) HoldUntil(now, until sim.Time) {
	w.advance(now)
	if until <= now {
		return
	}
	w.resting = true
	if !(w.restUntil > until) {
		w.restUntil = until
	}
}
