package cocoa

import (
	"cocoa/internal/bayes"
	"cocoa/internal/geom"
	"cocoa/internal/geounicast"
	"cocoa/internal/mac"
	"cocoa/internal/mobility"
	"cocoa/internal/mrmm"
	"cocoa/internal/network"
	"cocoa/internal/odometry"
	"cocoa/internal/sim"
)

// BeaconPayload is the localization beacon's content: the sender and the
// coordinates its localization device reports (true position for equipped
// robots, the current estimate under the SecondaryBeacons extension).
type BeaconPayload struct {
	Sender int
	Pos    geom.Vec2
	// Secondary marks beacons from unequipped-but-localized robots
	// (the paper's future-work extension).
	Secondary bool
}

// SyncPayload is the SYNC message the Sync robot multicasts over MRMM at
// the start of every beacon period: the periods T and t, plus the absolute
// start time of the current period so receivers can align their timers.
// SyncPos carries the Sync robot's own coordinates so robots can address
// controller reports geographically (Config.EnableReporting).
type SyncPayload struct {
	PeriodS      sim.Time
	TransmitS    sim.Time
	WindowStartS sim.Time
	SyncPos      geom.Vec2
}

// Localizer abstracts the per-robot RF position estimator so CoCoA can
// host different localization techniques — the paper: "CoCoA is not tied
// to a specific localization technique ... other approaches could be
// integrated in CoCoA as well". bayes.Grid (the paper's technique),
// mcl.Filter (Monte Carlo localization), and ekf.Filter all satisfy it.
type Localizer interface {
	// ApplyBeacon folds one beacon observation into the posterior.
	ApplyBeacon(beaconPos geom.Vec2, pdf bayes.DistanceDensity)
	// BeaconCount returns the observations since the last Reset.
	BeaconCount() int
	// Ready reports whether the paper's >=3 beacon rule is met.
	Ready() bool
	// Estimate returns the current point estimate.
	Estimate() geom.Vec2
	// Reset restarts from the uniform prior.
	Reset()
}

var (
	_ Localizer = (*bayes.Grid)(nil)
)

// robot is one team member's full state.
type robot struct {
	id       int
	equipped bool

	way      *mobility.Waypoint
	nic      *network.NIC
	proto    *mrmm.Protocol
	loc      Localizer // nil for equipped robots and odometry-only mode
	reckoner *odometry.DeadReckoner

	// estimate is the robot's current believed position; haveFix reports
	// whether an RF fix ever succeeded.
	estimate geom.Vec2
	haveFix  bool

	// scheduleKnown flips when the first SYNC arrives; only then may the
	// radio sleep (a robot cannot honor a schedule it has not heard).
	scheduleKnown bool
	// clockErr is the robot's timer error relative to true time; SYNC
	// reception zeroes it, otherwise it random-walks per period.
	clockErr float64
	// syncedThisPeriod records whether a SYNC arrived since the last
	// window ended.
	syncedThisPeriod bool
	// failed marks a robot that died mid-run (failure injection).
	failed bool
	// crashed marks a robot inside a fault-injection outage: radio off,
	// no beacons, no timers — but mobility and dead reckoning continue,
	// so its odometry keeps drifting until recovery brings RF fixes back.
	crashed bool

	// Controller reporting (Config.EnableReporting).
	agent       *geounicast.Agent
	lastSyncPos geom.Vec2
	haveSyncPos bool

	// lastTruePos supports odometry stepping; stepRobots refreshes it
	// every sample tick, so within a tick it doubles as a cached
	// truePos(now) for the metric sampler.
	lastTruePos geom.Vec2

	// pending queues beacon observations between flush points. Nothing
	// reads loc between beacon deliveries (only endWindow and finish do,
	// and both flush first), so applications can be deferred and fanned
	// across robots without changing any observable state.
	pending []pendingBeacon

	// Diagnostics.
	fixes          int
	missedWindows  int // windows that ended with fewer than MinBeacons beacons
	beaconsApplied int
	syncsReceived  int
}

// truePos returns the robot's actual position now.
func (r *robot) truePos(now sim.Time) geom.Vec2 { return r.way.Position(now) }

// currentEstimate returns the robot's believed position under the given
// mode. Equipped robots always know their position (their localization
// device provides it).
func (r *robot) currentEstimate(mode Mode, now sim.Time) geom.Vec2 {
	if r.equipped && mode != ModeOdometryOnly {
		return r.truePos(now)
	}
	switch mode {
	case ModeOdometryOnly:
		return r.reckoner.Estimate()
	case ModeRFOnly:
		return r.estimate
	default: // ModeCombined
		return r.reckoner.Estimate()
	}
}

// stepOdometry advances dead reckoning by one sample interval; cur is the
// robot's true position now (computed once by the caller) and noiseScale
// carries the terrain roughness there.
func (r *robot) stepOdometry(cur geom.Vec2, dt, noiseScale float64) {
	r.reckoner.StepScaled(cur.Sub(r.lastTruePos), dt, noiseScale)
	r.lastTruePos = cur
}

// pendingBeacon is one queued beacon observation: the sender's advertised
// position and the distance density already resolved from the calibration
// table (the lookup happens at enqueue time, on the event loop, so worker
// goroutines never touch the shared table).
type pendingBeacon struct {
	pos geom.Vec2
	pdf bayes.DistanceDensity
}

// onBeacon queues a received beacon for the RF position estimator. The
// expensive grid update runs later, at the next flush point, possibly on a
// worker goroutine (Team.flushBeaconQueues).
func (r *robot) onBeacon(f mac.Frame, rssiDBm float64, lookup func(float64) (bayes.DistanceDensity, bool)) {
	b, ok := f.Payload.(BeaconPayload)
	if !ok || r.loc == nil {
		return
	}
	pdf, ok := lookup(rssiDBm)
	if !ok {
		return
	}
	r.pending = append(r.pending, pendingBeacon{pos: b.Pos, pdf: pdf})
	r.beaconsApplied++
}

// applyPending folds the queued beacons into the localizer in arrival
// (FIFO) order. Each robot's queue is applied by exactly one goroutine, so
// the posterior a robot reaches is independent of the worker count.
func (r *robot) applyPending() {
	for i := range r.pending {
		r.loc.ApplyBeacon(r.pending[i].pos, r.pending[i].pdf)
		r.pending[i] = pendingBeacon{} // release the PDF reference
	}
	r.pending = r.pending[:0]
}

// finalizeWindow closes a transmit window: if the paper's >=3 beacon rule
// is met, the robot throws away its current estimate and adopts the fresh
// RF fix (resetting odometry to it); otherwise it continues with the old
// estimate. The grid always restarts from the uniform prior.
func (r *robot) finalizeWindow() {
	if r.loc == nil {
		return
	}
	if r.loc.Ready() {
		fix := r.loc.Estimate()
		r.estimate = fix
		r.reckoner.Reanchor(fix)
		r.haveFix = true
		r.fixes++
	} else {
		r.missedWindows++
	}
	r.loc.Reset()
}
