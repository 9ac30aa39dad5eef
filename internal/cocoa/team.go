package cocoa

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cocoa/internal/bayes"
	"cocoa/internal/caltable"
	"cocoa/internal/ekf"
	"cocoa/internal/faults"
	"cocoa/internal/geom"
	"cocoa/internal/geounicast"
	"cocoa/internal/mac"
	"cocoa/internal/mcl"
	"cocoa/internal/network"
	"cocoa/internal/obs"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
	"cocoa/internal/terrain"
)

// Bounds of the robots busy at each flush (its widest possible fan-out) and
// of the per-robot queue length a flush drains.
var (
	flushBusyBounds  = []float64{0, 1, 2, 4, 8, 16, 32, 64}
	queueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32}
)

// Team is one assembled deployment, ready to run.
type Team struct {
	cfg      Config
	slot     *slot
	sim      *sim.Simulator
	med      *mac.Medium
	table    *caltable.Table
	robots   []*robot
	rng      *sim.RNG
	clockRng *sim.RNG
	syncID   int
	ran      bool

	terrain *terrain.Field

	// pool holds the run's CPU budget (set by run); flushWorkers > 0 pins
	// the flush's goroutine count instead (see reference).
	pool         *slotPool
	flushWorkers int

	// Fault injection (Config.Faults). links holds the per-robot channel
	// filters so finish can collect their counters; outages is the crash
	// schedule armed in Run.
	links      []*faults.Link
	outages    []faults.Outage
	crashes    int
	recoveries int

	// ticks counts completed sampling ticks, for the progress gauge.
	ticks int

	// Controller-reporting counters (Config.EnableReporting).
	reportsSent      int
	reportsDelivered int
	reportHops       int

	// Run telemetry not counted elsewhere (see Telemetry); flushBusy
	// observes once per flush, and scratchReuse is 1 on a warm run slot.
	// kept is the counts of what the slot owns, copied when the run ends
	// (see keepCounts).
	kept         keptCounts
	beaconsSent  int
	flushBusy    telemetry.Tally
	queueDepth   telemetry.Tally
	scratchReuse int

	// progress is the live-position tap (Config.Progress): write-only for
	// the run, so it cannot steer results; nil disables it at one pointer
	// check per tick.
	progress *obs.Progress
}

// NewTeam assembles a deployment from the configuration. The calibration
// phase (PDF Table construction) runs here, before the mission starts,
// exactly as the paper's offline calibration does.
//
// The team is built on a run slot borrowed from the process-wide free list
// that RunContext draws from, and running it parks the slot again, so
// consecutive teams re-initialise in place everything the slot owns (the
// simulator, RNG streams, MAC medium, robots and belief grids; see slot).
// The team stays readable (Telemetry, Table) for as long as the
// caller holds it: the counts the slot owns are copied into the team when
// the run ends. A team that is never run keeps its slot until it is
// collected.
func NewTeam(cfg Config) (*Team, error) {
	return runSlots.team(cfg, reference{})
}

// reference selects slow reference implementations in place of the
// production paths: the MAC's O(n) receiver scan (mac.IndexScan) instead of
// the spatial grid, and the Bayesian grid's full-scan statistics
// (bayes.StatsEager) instead of the incremental accumulators. Both exist
// only as oracles — results are byte-identical under scan and agree within
// 1e-9 under eager (DESIGN.md §12, §13) — so only the differential test
// suites select them, through a context that RunContext reads (see
// export_test.go), as does a fixed flushWorkers count in place of the CPU
// budget. The zero value is the production setup.
type reference struct {
	scan         bool
	eager        bool
	flushWorkers int
}

// referenceKey is the context key carrying a reference selection.
type referenceKey struct{}

// referenceFrom returns the reference selection ctx carries, zero if none.
func referenceFrom(ctx context.Context) reference {
	ref, _ := ctx.Value(referenceKey{}).(reference)
	return ref
}

// newTeam assembles cfg, which must be valid, on run slot sl under an
// explicit reference selection.
func newTeam(cfg Config, sl *slot, ref reference) (*Team, error) {
	scratchReuse := min(sl.runs, 1)
	s, root := sl.begin(cfg.Seed)

	macCfg := mac.DefaultConfig(cfg.Radio)
	if !ref.scan {
		// Spatial neighbor index (the production path; the scan is a test
		// oracle): stepRobots re-indexes every position once per sampling
		// tick, so no station ever drifts more than VMax * SampleIntervalS
		// from its bucketed position — the slack that keeps the indexed
		// medium byte-identical to the scan.
		macCfg.NeighborIndex = mac.IndexGrid
		macCfg.IndexSlackM = cfg.VMax * float64(cfg.SampleIntervalS)
	}
	if err := sl.med.Init(s, macCfg, root.Stream("mac")); err != nil {
		return nil, err
	}

	t := &Team{
		cfg:      cfg,
		slot:     sl,
		sim:      s,
		med:      &sl.med,
		rng:      root.Stream("team"),
		clockRng: root.Stream("clock"),
		progress: cfg.Progress,

		flushWorkers: ref.flushWorkers,
		flushBusy:    telemetry.NewTally(flushBusyBounds),
		queueDepth:   telemetry.NewTally(queueDepthBounds),
		scratchReuse: scratchReuse,
	}

	if cfg.TerrainAmplitude > 0 {
		field, err := terrain.New(cfg.Seed, cfg.TerrainCellM, cfg.TerrainAmplitude)
		if err != nil {
			return nil, err
		}
		t.terrain = field
	}

	needRF := cfg.Mode != ModeOdometryOnly
	if needRF {
		// Shared derives the same "calibration" stream from cfg.Seed that
		// a direct Calibrate call here used, so identical configs across a
		// sweep reuse one immutable table instead of re-sounding the
		// channel per run.
		table, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		t.table = table
	}

	mobCfg := cfg.mobilityConfig()
	mrmmCfg := cfg.mrmmConfig()
	center := cfg.Area.Center()
	t.robots = sl.robotSlab(cfg.NumRobots)
	for id, r := range t.robots {
		clear(r.pending)
		r.pending = r.pending[:0]
		r.robotRun = robotRun{
			id:       id,
			equipped: id < cfg.NumEquipped,
			team:     t,
			estimate: center,
		}
		if err := r.way.Init(mobCfg, root.StreamN("mobility", id)); err != nil {
			return nil, err
		}
		r.lastTruePos = r.way.Position(0)

		// Odometry anchor: the paper's odometry-only experiment provides
		// robots with their true initial coordinates; RF modes start the
		// reckoner at the uniform-prior mean (the area center) because no
		// initial position is given.
		anchor := center
		if cfg.Mode == ModeOdometryOnly {
			anchor = r.lastTruePos
		}
		if err := r.reckoner.Init(cfg.Odometry, root.StreamN("odometry", id), anchor); err != nil {
			return nil, err
		}

		r.nic.Init(s, t.med, cfg.Energy, id, r.on.motion)

		if !needRF {
			// Odometry-only robots do not use the radio at all.
			r.nic.PowerOff()
			continue
		}

		if !r.equipped {
			loc, err := r.localizer(cfg, root, sl, ref.eager)
			if err != nil {
				return nil, err
			}
			r.loc = loc
			r.nic.Handle(network.KindBeacon, r.on.beacon)
		}

		if err := r.mesh.Init(s, &r.nic, mrmmCfg, root.StreamN("mrmm", id), sl.mesh, r.on.mobility); err != nil {
			return nil, err
		}
		r.proto = &r.mesh
		r.proto.SetMember(true)
		r.proto.OnData(r.on.sync)
		if cfg.DisableSync {
			// Preprogrammed schedule: every robot knows T and t from
			// deployment, but nothing ever corrects its clock.
			r.scheduleKnown = true
		}

		if cfg.EnableReporting {
			agent, err := geounicast.New(s, &r.nic, geounicast.DefaultConfig(),
				root.StreamN("unicast", id), func() geom.Vec2 {
					return r.currentEstimate(cfg.Mode, s.Now())
				})
			if err != nil {
				return nil, err
			}
			r.agent = agent
			if id == t.syncID {
				r.agent.OnDeliver(func(p geounicast.Packet) {
					t.reportsDelivered++
					t.reportHops += p.Hops
				})
			}
		}
	}

	// The Sync robot is the first equipped robot. It defines the team's
	// time base, so its own clock is error-free by definition.
	t.syncID = 0
	if needRF && t.robots[t.syncID].equipped {
		t.robots[t.syncID].scheduleKnown = true
	}

	// Fault injection. Every source draws from its own named stream, so
	// enabling one fault kind never perturbs another — and the zero config
	// touches no stream at all, keeping fault-free runs byte-identical.
	if needRF && cfg.Faults.Enabled() {
		if cfg.Faults.LinkEnabled() {
			for _, r := range t.robots {
				link := faults.NewLink(cfg.Faults,
					root.StreamN("fault-loss", r.id),
					root.StreamN("fault-outlier", r.id),
					network.KindBeacon)
				r.nic.SetFaultFilter(link)
				t.links = append(t.links, link)
			}
		}
		if cfg.Faults.SkewMaxS > 0 {
			for _, r := range t.robots {
				if r.id == t.syncID {
					continue // the Sync robot defines the time base
				}
				r.clockErr = root.StreamN("fault-skew", r.id).
					Uniform(-cfg.Faults.SkewMaxS, cfg.Faults.SkewMaxS)
			}
		}
		t.outages = faults.CrashSchedule(cfg.Faults, cfg.NumRobots, t.syncID,
			float64(cfg.DurationS), root.Stream("fault-crash"))
	}
	return t, nil
}

// localizer re-initialises the robot's configured RF estimation backend.
// Grid localizers draw from the slot's grid arena, and read their
// statistics by full scans when eager is set.
func (r *robot) localizer(cfg Config, root *sim.RNG, sl *slot, eager bool) (Localizer, error) {
	switch cfg.Localizer {
	case LocalizerParticle:
		mc := mcl.DefaultConfig(cfg.Area)
		mc.Particles = cfg.Particles
		if err := r.particles.Init(mc, root.StreamN("mcl", r.id)); err != nil {
			return nil, err
		}
		return &r.particles, nil
	case LocalizerEKF:
		if err := r.kalman.Init(ekf.DefaultConfig(cfg.Area)); err != nil {
			return nil, err
		}
		return &r.kalman, nil
	default:
		g, err := sl.grid(cfg)
		if err != nil {
			return nil, err
		}
		if eager {
			g.SetStatsMode(bayes.StatsEager)
		}
		return g, nil
	}
}

// lookupPDF adapts the calibration table to the bayes consumer interface.
func (t *Team) lookupPDF(rssiDBm float64) (bayes.DistanceDensity, bool) {
	pdf, ok := t.table.Lookup(rssiDBm)
	if !ok {
		return nil, false
	}
	return pdf, true
}

// Table exposes the calibrated PDF table the team localizes with (nil in
// odometry-only mode).
func (t *Team) Table() *caltable.Table { return t.table }

// Run executes the deployment and collects the result. A team can run only
// once. Run is RunContext with a background context.
func (t *Team) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext executes the deployment under ctx and collects the result. A
// team can run only once. On every return it publishes its Telemetry into
// telemetry.Default if that registry is enabled, and parks its run slot for
// the next team.
//
// Cancellation is observed cooperatively at the end of every
// metric-sampling tick (one simulated SampleIntervalS, microseconds of
// wall time): the event loop stops and ctx.Err() is returned, discarding
// the partial run. The check reads ctx without touching the event calendar
// or any RNG stream, so a run that is never canceled is byte-identical to
// one executed without a context — the service path and the direct path
// produce the same Result.
func (t *Team) RunContext(ctx context.Context) (*Result, error) {
	return t.run(ctx, &runSlots)
}

// run is RunContext drawing its Result from p's released ones and parking
// the team's slot in p on every exit. It is the only place a slot is
// parked. The run holds one CPU of p's budget until it returns.
func (t *Team) run(ctx context.Context, p *slotPool) (*Result, error) {
	if t.ran {
		return nil, fmt.Errorf("cocoa: team already ran")
	}
	t.ran = true
	t.pool = p
	p.cpus.Add(1)
	defer func() {
		p.cpus.Add(-1)
		t.keepCounts()
		if telemetry.Default.Enabled() {
			t.publish(telemetry.Default)
		}
		p.put(t.slot)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := t.cfg

	res := p.result(cfg, t.trackedIDs())

	if cfg.Mode != ModeOdometryOnly {
		t.scheduleWindows()
	}

	// Failure injection: the configured number of equipped robots die at
	// the configured instant (the Sync robot, id 0, is never chosen so
	// the schedule survives).
	if cfg.FailEquippedCount > 0 {
		t.sim.At(cfg.FailAtS, func() {
			for i := 0; i < cfg.FailEquippedCount; i++ {
				t.failRobot(t.sim.Now(), t.robots[cfg.NumEquipped-1-i])
			}
		})
	}

	// Crash/recovery outages from the fault schedule (Config.Faults).
	for _, o := range t.outages {
		o := o
		t.sim.At(sim.Time(o.StartS), func() { t.crashRobot(t.robots[o.Robot]) })
		if o.EndS < float64(cfg.DurationS) {
			t.sim.At(sim.Time(o.EndS), func() { t.recoverRobot(t.robots[o.Robot]) })
		}
	}

	// Metric sampling and odometry stepping, once per sample interval. The
	// same tick doubles as the cancellation point, checked at its end:
	// checking ctx adds no events and consumes no randomness, so an
	// uncanceled run cannot diverge from a context-free one.
	done := ctx.Done()
	dt := float64(cfg.SampleIntervalS)
	// Live progress is published with one atomic store per tick —
	// write-only, so it cannot perturb the run.
	totalTicks := maxSampleTicks(cfg)
	t.progress.SetTicks(0, totalTicks)
	t.sim.EachTick(cfg.SampleIntervalS, cfg.SampleIntervalS, func(now sim.Time) {
		t.stepRobots(now, dt)
		// Refresh the MAC's spatial index with the tick's new positions
		// (no-op under the scan path; consumes no randomness either way).
		t.med.UpdatePositions()
		t.sample(res, now)
		t.ticks++
		t.progress.SetTicks(t.ticks, totalTicks)
		if done != nil && ctx.Err() != nil {
			t.sim.Stop()
		}
	})

	t.sim.RunUntil(cfg.DurationS)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.finish(res)
	return res, nil
}

// maxSampleTicks is how many sampling ticks a run of cfg executes (ticks
// fire at SampleIntervalS, 2·SampleIntervalS, …, up to DurationS
// inclusive).
func maxSampleTicks(cfg Config) int {
	return int(math.Floor(float64(cfg.DurationS)/float64(cfg.SampleIntervalS) + 1e-9))
}

// trackedIDs returns the robots whose localization error the experiment
// reports: all robots in odometry-only mode, the unequipped ones otherwise
// (the paper reports error only for robots without localization devices).
func (t *Team) trackedIDs() []int {
	var ids []int
	for _, r := range t.robots {
		if t.cfg.Mode == ModeOdometryOnly || !r.equipped {
			if ids == nil {
				ids = make([]int, 0, len(t.robots))
			}
			ids = append(ids, r.id)
		}
	}
	return ids
}

// stepRobots advances dead reckoning for every robot that uses it. The
// waypoint position is evaluated once per robot per tick; the cached
// lastTruePos then serves the metric sampler in the same tick.
func (t *Team) stepRobots(now sim.Time, dt float64) {
	for _, r := range t.robots {
		cur := r.truePos(now)
		scale := 1.0
		if t.terrain != nil {
			scale = t.terrain.RoughnessAt(cur.X, cur.Y)
		}
		switch {
		case t.cfg.Mode == ModeOdometryOnly:
			r.stepOdometry(cur, dt, scale)
		case t.cfg.Mode == ModeCombined && !r.equipped:
			r.stepOdometry(cur, dt, scale)
		default:
			// RF-only robots do not dead-reckon; still advance the
			// mobility process so positions stay current.
			r.lastTruePos = cur
		}
	}
}

// sample records per-robot localization error at time now. stepRobots just
// refreshed every robot's lastTruePos for this tick, so the waypoint model
// is not re-evaluated here.
func (t *Team) sample(res *Result, now sim.Time) {
	var sum float64
	n := 0
	for i, id := range res.TrackedIDs {
		r := t.robots[id]
		err := r.currentEstimate(t.cfg.Mode, now).Dist(r.lastTruePos)
		res.PerRobot[i] = append(res.PerRobot[i], err)
		sum += err
		n++
	}
	res.Times = append(res.Times, float64(now))
	res.AvgError = append(res.AvgError, sum/float64(n))
}

// scheduleWindows arms the events of every beacon period of the run.
func (t *Team) scheduleWindows() {
	cfg := t.cfg
	for w := sim.Time(0); w < cfg.DurationS; w += cfg.BeaconPeriodS {
		t.sim.At(w, func() { t.startWindow(w) })
		t.sim.At(w+cfg.TransmitPeriodS, func() { t.endWindow(w) })
	}
}

// startWindow wakes the team, refreshes the MRMM mesh, disseminates SYNC,
// and schedules the window's beacons.
func (t *Team) startWindow(w sim.Time) {
	cfg := t.cfg
	t.emitSimple(EventWindowStart, -1)
	// Punctual and early robots are awake by now (their wake timers fired
	// at w+clockErr <= w); late robots wake when their skewed timer fires.
	for _, r := range t.robots {
		if !r.failed && !r.crashed && r.clockErr <= 0 {
			r.nic.Wake()
		}
	}

	// Sync robot: mesh refresh, then the SYNC message over the mesh.
	if !cfg.DisableSync {
		syncRobot := t.robots[t.syncID]
		if err := syncRobot.proto.SendQuery(); err == nil {
			t.sim.Schedule(0.1, func() {
				_ = syncRobot.proto.SendData(SyncPayload{
					PeriodS:      cfg.BeaconPeriodS,
					TransmitS:    cfg.TransmitPeriodS,
					WindowStartS: w,
					SyncPos:      syncRobot.truePos(t.sim.Now()),
				})
			})
		}
	}

	// Beacons: k per equipped robot, spread over the window after a
	// short guard for SYNC dissemination. Each sender schedules on its
	// own (possibly skewed) clock.
	const guard = 0.3
	usable := float64(cfg.TransmitPeriodS) - guard - 0.05
	if usable <= 0 {
		usable = float64(cfg.TransmitPeriodS) * 0.5
	}
	for _, r := range t.robots {
		if r.failed || r.crashed {
			continue
		}
		secondary := cfg.SecondaryBeacons && !r.equipped && r.haveFix
		if !r.equipped && !secondary {
			continue
		}
		skew := r.clockErr
		if skew < 0 {
			skew = 0 // cannot transmit in the past
		}
		for j := 0; j < cfg.BeaconsPerWindow; j++ {
			slot := usable * (float64(j) + t.rng.Float64()) / float64(cfg.BeaconsPerWindow)
			t.sim.Schedule(skew+guard+slot, r.on.beaconDue)
		}
	}

	if cfg.EnableReporting {
		t.scheduleReporting(usable, guard)
	}
}

// scheduleReporting arms this window's HELLO exchange and the localized
// robots' status reports toward the Sync robot.
func (t *Team) scheduleReporting(usable, guard float64) {
	for _, r := range t.robots {
		r := r
		if r.failed || r.crashed || r.agent == nil {
			continue
		}
		skew := r.clockErr
		if skew < 0 {
			skew = 0
		}
		t.sim.Schedule(skew+guard+usable*t.rng.Float64(), func() {
			_ = r.agent.SendHello()
		})
		// Reports go out mid-window (everyone is awake) and carry the
		// robot's previous fix; the Sync robot does not report to itself.
		if r.id == t.syncID || r.equipped || !r.haveFix || !r.haveSyncPos {
			continue
		}
		t.sim.Schedule(skew+guard+usable*(0.5+0.5*t.rng.Float64()), func() {
			t.reportsSent++
			r.agent.Send(t.syncID, r.lastSyncPos, "status-report")
		})
	}
}

// sendBeacon broadcasts one localization beacon from robot r.
func (t *Team) sendBeacon(r *robot) {
	if r.failed || r.crashed {
		return // crashed after this beacon was scheduled
	}
	now := t.sim.Now()
	pos := r.truePos(now)
	payload := t.slot.beacons.Next(t.med)
	*payload = BeaconPayload{Sender: r.id, Pos: pos}
	if !r.equipped {
		// Secondary beacon: advertise the estimate, not the truth — the
		// robot does not know its true position.
		payload.Pos = r.reckoner.Estimate()
		payload.Secondary = true
	}
	if r.nic.Send(network.KindBeacon, network.BeaconBytes, payload) == nil {
		t.beaconsSent++
		t.emit(EventBeaconSent, r.id, payload.Pos, 0, 0)
	}
}

// flushBeaconQueues applies every robot's queued beacon observations, on
// the run's goroutine plus one helper per CPU it can claim from the pool's
// budget without waiting. Per-robot localizer state is disjoint, each queue
// is applied FIFO by exactly one goroutine, and no RNG stream is shared
// across robots, so the grids a flush produces are byte-identical at any
// worker count: the helpers only change which OS thread does the arithmetic.
func (t *Team) flushBeaconQueues() {
	busy := t.slot.busy[:0]
	for _, r := range t.robots {
		if len(r.pending) > 0 {
			t.queueDepth.Observe(len(r.pending))
			busy = append(busy, r)
		}
	}
	t.slot.busy = busy
	t.flushBusy.Observe(len(busy))
	helpers := min(t.flushWorkers, len(busy)) - 1
	if t.flushWorkers == 0 {
		helpers = t.pool.claim(len(busy) - 1)
		defer t.pool.cpus.Add(int64(-helpers))
	}
	if helpers <= 0 {
		for _, r := range busy {
			r.applyPending()
		}
		return
	}
	var next atomic.Int64
	apply := func() {
		for i := int(next.Add(1)) - 1; i < len(busy); i = int(next.Add(1)) - 1 {
			busy[i].applyPending()
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() { apply(); wg.Done() }()
	}
	apply()
	wg.Wait()
}

// endWindow finalizes RF fixes, advances each robot's clock model, and
// arms the per-robot sleep and wake timers for the next period.
func (t *Team) endWindow(w sim.Time) {
	cfg := t.cfg
	now := t.sim.Now()
	t.emitSimple(EventWindowEnd, -1)
	// Apply the window's queued beacons before any localizer readout below.
	t.flushBeaconQueues()
	for _, r := range t.robots {
		if r.failed {
			continue
		}
		if !r.equipped {
			beacons := r.loc.BeaconCount()
			fixed := r.loc.Ready()
			r.finalizeWindow()
			if t.cfg.Observer != nil {
				if fixed {
					t.emit(EventFix, r.id, r.estimate,
						r.estimate.Dist(r.truePos(now)), beacons)
				} else {
					t.emit(EventFixMissed, r.id, geom.Vec2{}, 0, beacons)
				}
			}
		}

		// Clock model: a SYNC this period resynchronized the robot;
		// otherwise its timer error random-walks. The Sync robot defines
		// the time base and never drifts.
		if r.id != t.syncID {
			if !r.syncedThisPeriod && cfg.ClockDriftSigmaS > 0 {
				r.clockErr += t.clockRng.Normal(0, cfg.ClockDriftSigmaS)
			}
		}
		r.syncedThisPeriod = false

		if r.crashed {
			// An outage spans this window: the radio is off, so no sleep
			// or wake timers — recovery re-wakes it directly. The clock
			// kept drifting above; the missed fix was counted above.
			continue
		}
		if !cfg.Coordinated || !r.scheduleKnown {
			continue // stays awake; no timers to arm
		}
		sleepAt := float64(w+cfg.TransmitPeriodS) + r.clockErr
		if sleepAt < now {
			sleepAt = now
		}
		t.sim.At(sleepAt, r.on.sleep)
		wakeAt := float64(w+cfg.BeaconPeriodS) + r.clockErr
		if wakeAt <= sleepAt {
			wakeAt = sleepAt
		}
		if wakeAt < float64(cfg.DurationS) {
			t.sim.At(wakeAt, r.on.wake)
		}
	}
}

// finish flushes energy meters and aggregates counters into the result.
func (t *Team) finish(res *Result) {
	// Beacons delivered after the last window end (MAC delivery delay can
	// push them past the endWindow event) would previously have been folded
	// into the grid immediately; apply them so the localizer state matches.
	t.flushBeaconQueues()
	now := t.sim.Now()
	for _, r := range t.robots {
		res.FinalTruePositions = append(res.FinalTruePositions, r.truePos(now))
		res.FinalEstimates = append(res.FinalEstimates, r.currentEstimate(t.cfg.Mode, now))
		res.Equipped = append(res.Equipped, r.equipped)
		m := r.nic.Meter()
		m.Flush(now)
		res.PerRobotEnergyJ = append(res.PerRobotEnergyJ, m.TotalJ())
		res.TotalEnergyJ += m.TotalJ()
		res.NoSleepEnergyJ += m.CounterfactualNoSleepJ()
		res.Fixes += r.fixes
		res.MissedWindows += r.missedWindows
		res.BeaconsApplied += r.beaconsApplied
		res.SyncsReceived += r.syncsReceived
		if r.loc != nil && !r.haveFix {
			res.NeverFixed++
		}
		if r.proto != nil {
			s := r.proto.Stats()
			res.MRMM.QueriesSent += s.QueriesSent
			res.MRMM.RepliesSent += s.RepliesSent
			res.MRMM.DataSent += s.DataSent
			res.MRMM.DataDelivered += s.DataDelivered
			res.MRMM.BecameForwarder += s.BecameForwarder
		}
	}
	res.MAC = t.med.Stats()
	res.ReportsSent = t.reportsSent
	res.ReportsDelivered = t.reportsDelivered
	res.ReportHopsTotal = t.reportHops
	res.Crashes = t.crashes
	for _, l := range t.links {
		res.FaultDrops += l.Drops()
		res.RSSIOutliers += l.Outliers()
	}
}

// keptCounts is every count Telemetry reads of what the run slot owns,
// copied out by keepCounts. The robots' counts are summed over the team,
// which is how Telemetry publishes them.
type keptCounts struct {
	sim   sim.Counters
	mac   mac.Counts
	nic   network.Counts
	grids bayes.GridCounts
	// anyGrid is set when some robot localized on a belief grid: only then
	// are the bayes.* series published.
	anyGrid bool

	beaconsQueued, beaconsPending int
	fixes, fixMisses, syncs       int
}

// keepCounts copies the counts the run slot owns — the simulator's, the
// medium's, and each robot's NIC, belief-grid, beacon, fix and SYNC counts
// — into the team, so Telemetry stays valid once the slot serves another
// team. The run's fault links belong to the team, not the slot.
func (t *Team) keepCounts() {
	k := &t.kept
	k.sim = t.sim.Counters()
	k.mac = t.med.Counts()
	for _, r := range t.robots {
		k.nic.Add(r.nic.Counts())
		if g, ok := r.loc.(*bayes.Grid); ok {
			k.grids.Add(g.Counts())
			k.anyGrid = true
		}
		k.beaconsQueued += r.beaconsApplied
		k.beaconsPending += len(r.pending)
		k.fixes += r.fixes
		k.fixMisses += r.missedWindows
		k.syncs += r.syncsReceived
	}
}

// Telemetry returns the run's counts (the series it publishes into
// telemetry.Default), read from the team's own objects and the copies
// keepCounts took. Valid after RunContext, however many teams have reused
// the slot since.
func (t *Team) Telemetry() telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	t.publish(reg)
	return reg.Snapshot()
}

// publish adds the run's counts to reg. It reads nothing the run slot
// owns.
func (t *Team) publish(reg *telemetry.Registry) {
	k := &t.kept
	k.sim.Publish(reg)
	k.mac.Publish(reg)
	k.nic.Publish(reg)
	if k.anyGrid {
		k.grids.Publish(reg)
	}
	reg.Add("cocoa.beacons_queued", k.beaconsQueued)
	reg.Add("cocoa.beacons_applied", k.beaconsQueued-k.beaconsPending) // queued, less still pending
	reg.Add("cocoa.fixes", k.fixes)
	reg.Add("cocoa.fix_misses", k.fixMisses)
	reg.Add("cocoa.syncs_received", k.syncs)
	for _, l := range t.links {
		l.Publish(reg)
	}
	reg.Add("cocoa.beacons_sent", t.beaconsSent)
	reg.Add("cocoa.crashes", t.crashes)
	reg.Add("cocoa.recoveries", t.recoveries)
	reg.Add("cocoa.flushes", t.flushBusy.Count())
	reg.AddTally("cocoa.flush_busy_robots", &t.flushBusy)
	reg.AddTally("cocoa.beacon_queue_depth", &t.queueDepth)
	reg.Add("cocoa.scratch_reuse", t.scratchReuse)
}

// Run is the package-level convenience: assemble and run in one call.
// It is RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext assembles and runs a deployment in one call under ctx.
// Cancellation and deadlines are observed between the assembly phase and
// the run, and cooperatively at every sampling tick inside the run.
//
// The deployment is built on a run slot borrowed from a small process-wide
// free list (the one NewTeam draws from) and parked again when the run
// returns, so back-to-back runs recycle each other's simulator, RNG
// streams, MAC medium, robots and belief grids instead of reallocating
// them. Results are byte-identical
// either way; pass a Result that is no longer needed to ReleaseResult to
// recycle its buffers too.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return runSlots.run(ctx, cfg)
}
