package cocoa

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cocoa/internal/bayes"
	"cocoa/internal/caltable"
	"cocoa/internal/checkpoint"
	"cocoa/internal/ekf"
	"cocoa/internal/faults"
	"cocoa/internal/geom"
	"cocoa/internal/geounicast"
	"cocoa/internal/mac"
	"cocoa/internal/mcl"
	"cocoa/internal/mobility"
	"cocoa/internal/mrmm"
	"cocoa/internal/network"
	"cocoa/internal/obs"
	"cocoa/internal/odometry"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
	"cocoa/internal/terrain"
)

// Bounds of the robots busy at each flush (the worker pool's fan-out) and
// of the per-robot queue length a flush drains.
var (
	flushBusyBounds  = []float64{0, 1, 2, 4, 8, 16, 32, 64}
	queueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32}
)

// Team is one assembled deployment, ready to run.
type Team struct {
	cfg      Config
	sim      *sim.Simulator
	med      *mac.Medium
	table    *caltable.Table
	robots   []*robot
	rng      *sim.RNG
	clockRng *sim.RNG
	syncID   int
	ran      bool

	observers []Observer
	terrain   *terrain.Field

	// updateWorkers is the resolved Config.UpdateWorkers (0 -> GOMAXPROCS):
	// the pool bound for fanning per-robot beacon applications at flush
	// points.
	updateWorkers int

	// Fault injection (Config.Faults). links holds the per-robot channel
	// filters so finish can collect their counters; outages is the crash
	// schedule armed in Run.
	links      []*faults.Link
	outages    []faults.Outage
	crashes    int
	recoveries int

	// scratch is the run slot this team was built on (nil for fresh
	// construction); RunContext recycles Result buffers through it.
	scratch *Scratch

	// Checkpoint machinery (see checkpoint.go). root is the run's root RNG
	// stream, retained so digests can fingerprint the whole stream tree;
	// ticks counts completed sampling ticks; ckptHook receives a snapshot
	// after every tick (a test hook); verify holds the snapshot a resumed
	// run must match at its capture tick; ckptErr carries a capture/verify
	// failure out of the event loop.
	root     *sim.RNG
	ticks    int
	ckptHook func(*checkpoint.Snapshot) error
	verify   *checkpoint.Snapshot
	ckptErr  error

	// Controller-reporting counters (Config.EnableReporting).
	reportsSent      int
	reportsDelivered int
	reportHops       int

	// Run telemetry not counted elsewhere (see Telemetry); flushBusy
	// observes once per flush, and scratchReuse is 1 on a warm run slot.
	beaconsSent  int
	flushBusy    telemetry.Tally
	queueDepth   telemetry.Tally
	scratchReuse int

	// Observability taps (Config.Progress / Config.Trace). Both are
	// write-only for the run — nothing below reads them back — so they
	// cannot steer results; nil disables each at one pointer check per
	// record site.
	progress *obs.Progress
	tracer   *obs.Trace
}

// NewTeam assembles a deployment from the configuration. The calibration
// phase (PDF Table construction) runs here, before the mission starts,
// exactly as the paper's offline calibration does.
func NewTeam(cfg Config) (*Team, error) {
	return NewTeamScratch(cfg, nil)
}

// NewTeamScratch assembles a deployment on a reusable run slot: the
// simulator, the RNG streams, and the belief grids come from the scratch,
// recycled from the previous run built through it. The assembled team is
// byte-identical in behavior to a NewTeam one — reuse only changes where
// the memory comes from. Building a team on a scratch invalidates the
// previous team built on the same scratch (see Scratch). A nil scratch
// degenerates to NewTeam exactly.
func NewTeamScratch(cfg Config, sc *Scratch) (*Team, error) {
	return newTeam(cfg, sc, reference{})
}

// reference selects slow reference implementations in place of the
// production paths: the MAC's O(n) receiver scan (mac.IndexScan) instead of
// the spatial grid, and the Bayesian grid's full-scan statistics
// (bayes.StatsEager) instead of the incremental accumulators. Both exist
// only as oracles — results are byte-identical under scan and agree within
// 1e-9 under eager (DESIGN.md §12, §13) — so only the differential test
// suites select them, through a context that RunContext and RunScratch read
// (see export_test.go). The zero value is the production setup.
type reference struct {
	scan  bool
	eager bool
}

// referenceKey is the context key carrying a reference selection.
type referenceKey struct{}

// referenceFrom returns the reference selection ctx carries, zero if none.
func referenceFrom(ctx context.Context) reference {
	ref, _ := ctx.Value(referenceKey{}).(reference)
	return ref
}

// newTeam is NewTeamScratch with an explicit reference selection.
func newTeam(cfg Config, sc *Scratch, ref reference) (*Team, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var root *sim.RNG
	var s *sim.Simulator
	scratchReuse := 0
	if sc != nil {
		scratchReuse = min(sc.runs, 1)
		s, root = sc.begin(cfg.Seed)
	} else {
		root = sim.NewRNG(cfg.Seed)
		s = sim.New()
	}

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
	med, err := mac.NewMedium(s, macCfg, root.Stream("mac"))
	if err != nil {
		return nil, err
	}

	t := &Team{
		cfg:      cfg,
		sim:      s,
		med:      med,
		rng:      root.Stream("team"),
		clockRng: root.Stream("clock"),
		scratch:  sc,
		root:     root,
		progress: cfg.Progress,
		tracer:   cfg.Trace,

		flushBusy:    telemetry.NewTally(flushBusyBounds),
		queueDepth:   telemetry.NewTally(queueDepthBounds),
		scratchReuse: scratchReuse,
	}
	t.updateWorkers = cfg.UpdateWorkers
	if t.updateWorkers == 0 {
		t.updateWorkers = runtime.GOMAXPROCS(0)
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
	center := cfg.Area.Center()
	for id := 0; id < cfg.NumRobots; id++ {
		way, err := mobility.NewWaypoint(mobCfg, root.StreamN("mobility", id))
		if err != nil {
			return nil, err
		}
		r := &robot{
			id:       id,
			equipped: id < cfg.NumEquipped,
			way:      way,
			estimate: center,
		}
		r.lastTruePos = way.Position(0)

		// Odometry anchor: the paper's odometry-only experiment provides
		// robots with their true initial coordinates; RF modes start the
		// reckoner at the uniform-prior mean (the area center) because no
		// initial position is given.
		anchor := center
		if cfg.Mode == ModeOdometryOnly {
			anchor = r.lastTruePos
		}
		r.reckoner, err = odometry.NewDeadReckoner(cfg.Odometry, root.StreamN("odometry", id), anchor)
		if err != nil {
			return nil, err
		}

		r.nic = network.NewNIC(s, med, cfg.Energy, id, func() geom.Vec2 {
			return r.way.Position(s.Now())
		})

		if !needRF {
			// Odometry-only robots do not use the radio at all.
			r.nic.PowerOff()
			t.robots = append(t.robots, r)
			continue
		}

		if !r.equipped {
			r.loc, err = newLocalizer(cfg, root, id, sc, ref.eager)
			if err != nil {
				return nil, err
			}
			r.nic.Handle(network.KindBeacon, func(f mac.Frame, rssi float64) {
				r.onBeacon(f, rssi, t.lookupPDF)
			})
		}

		r.proto, err = mrmm.New(s, r.nic, cfg.mrmmConfig(), root.StreamN("mrmm", id),
			func() mrmm.MobilityInfo {
				return mrmm.MobilityInfo{
					Pos:  r.way.Position(s.Now()),
					Vel:  r.way.Velocity(),
					Rest: r.way.RestRemaining(s.Now()),
				}
			})
		if err != nil {
			return nil, err
		}
		r.proto.SetMember(true)
		r.proto.OnData(func(d mrmm.Data, _ float64) {
			if sp, ok := d.Payload.(SyncPayload); ok {
				r.scheduleKnown = true
				r.syncsReceived++
				// Resynchronize the robot's timers to the Sync robot.
				r.syncedThisPeriod = true
				r.clockErr = 0
				r.lastSyncPos = sp.SyncPos
				r.haveSyncPos = true
				t.emitSimple(EventSyncRecv, r.id)
			}
		})
		if cfg.DisableSync {
			// Preprogrammed schedule: every robot knows T and t from
			// deployment, but nothing ever corrects its clock.
			r.scheduleKnown = true
		}

		if cfg.EnableReporting {
			r.agent, err = geounicast.New(s, r.nic, geounicast.DefaultConfig(),
				root.StreamN("unicast", id), func() geom.Vec2 {
					return r.currentEstimate(cfg.Mode, s.Now())
				})
			if err != nil {
				return nil, err
			}
			if id == t.syncID {
				r.agent.OnDeliver(func(p geounicast.Packet) {
					t.reportsDelivered++
					t.reportHops += p.Hops
				})
			}
		}

		t.robots = append(t.robots, r)
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

// newLocalizer builds the configured RF estimation backend for one robot.
// Grid localizers draw from the scratch's grid arena when sc is non-nil,
// and read their statistics by full scans when eager is set.
func newLocalizer(cfg Config, root *sim.RNG, id int, sc *Scratch, eager bool) (Localizer, error) {
	switch cfg.Localizer {
	case LocalizerParticle:
		mc := mcl.DefaultConfig(cfg.Area)
		mc.Particles = cfg.Particles
		return mcl.New(mc, root.StreamN("mcl", id))
	case LocalizerEKF:
		return ekf.New(ekf.DefaultConfig(cfg.Area))
	default:
		var g *bayes.Grid
		var err error
		if sc != nil {
			g, err = sc.grid(cfg)
		} else {
			g, err = bayes.NewGrid(cfg.Area, cfg.GridCellM)
		}
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

// Table exposes the calibrated PDF table (nil in odometry-only mode), used
// by the Figure 1 experiment.
func (t *Team) Table() *caltable.Table { return t.table }

// Run executes the deployment and collects the result. A team can run only
// once. Run is RunContext with a background context.
func (t *Team) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext executes the deployment under ctx and collects the result. A
// team can run only once. On every return it publishes its Telemetry into
// telemetry.Default if that registry is enabled.
//
// Cancellation is observed cooperatively at the end of every
// metric-sampling tick (one simulated SampleIntervalS, microseconds of
// wall time): the event loop stops and ctx.Err() is returned, discarding
// the partial run — after writing a snapshot of that tick into
// Config.CheckpointDir, when one is set. The check
// reads ctx without touching the event calendar or any RNG stream, so a run
// that is never canceled is byte-identical to one executed without a
// context — the service path and the direct path produce the same Result.
func (t *Team) RunContext(ctx context.Context) (*Result, error) {
	if t.ran {
		return nil, fmt.Errorf("cocoa: team already ran")
	}
	t.ran = true
	defer func() {
		if telemetry.Default.Enabled() {
			t.publish(telemetry.Default)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := t.cfg

	tracked := t.trackedIDs()
	var res *Result
	if t.scratch != nil {
		res = t.scratch.takeResult(cfg, tracked)
	}
	if res == nil {
		res = newResult(cfg, tracked)
	}

	if cfg.Mode != ModeOdometryOnly {
		t.scheduleWindow(0)
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
	// same tick doubles as the cancellation point, checked at its end so a
	// canceled run stops exactly on the state a replay verifies at that
	// tick: checking ctx adds no events and consumes no randomness, so an
	// uncanceled run cannot diverge from a context-free one.
	done := ctx.Done()
	dt := float64(cfg.SampleIntervalS)
	// Live progress is published with one atomic store per tick —
	// write-only, so it cannot perturb the run.
	totalTicks := maxSampleTicks(cfg)
	t.progress.SetTicks(0, totalTicks)
	if t.tracer != nil {
		t.tracer.SetThreadName(0, "event-loop")
		t.tracer.Begin(0, "run", 0, map[string]any{
			"seed": cfg.Seed, "robots": cfg.NumRobots, "duration_s": int(cfg.DurationS),
		})
	}
	t.sim.EachTick(cfg.SampleIntervalS, cfg.SampleIntervalS, func(now sim.Time) {
		t.stepRobots(now, dt)
		// Refresh the MAC's spatial index with the tick's new positions
		// (no-op under the scan path; consumes no randomness either way).
		t.med.UpdatePositions()
		t.sample(res, now)
		t.ticks++
		t.progress.SetTicks(t.ticks, totalTicks)
		// Checkpoint machinery: verify a pending resume snapshot at its
		// tick, then feed the test hook. Both read state without mutating
		// it (digests are side-effect free), so runs with checkpointing
		// on, off, or resumed stay byte-identical.
		if t.verify != nil || t.ckptHook != nil {
			t.onSampleTick(res, now)
		}
		if done != nil && ctx.Err() != nil {
			t.onInterrupt(res, now)
			t.sim.Stop()
		}
	})

	t.sim.RunUntil(cfg.DurationS)
	if err := ctx.Err(); err != nil {
		if t.ckptErr != nil {
			err = errors.Join(err, t.ckptErr)
		}
		return nil, err
	}
	if t.ckptErr != nil {
		return nil, t.ckptErr
	}
	if t.verify != nil {
		// The run ended before reaching the snapshot's tick — the snapshot
		// does not belong to this configuration.
		return nil, &checkpoint.FormatError{
			Reason: fmt.Sprintf("snapshot tick %d never reached (run sampled %d ticks)", t.verify.TickIndex, t.ticks),
		}
	}
	t.finish(res)
	// Close the run span (and any sampling-window whose scheduled end fell
	// past DurationS) so every exported trace is balanced.
	t.tracer.CloseOpen(float64(t.sim.Now()))
	return res, nil
}

// trackedIDs returns the robots whose localization error the experiment
// reports: all robots in odometry-only mode, the unequipped ones otherwise
// (the paper reports error only for robots without localization devices).
func (t *Team) trackedIDs() []int {
	var ids []int
	for _, r := range t.robots {
		if t.cfg.Mode == ModeOdometryOnly || !r.equipped {
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

// scheduleWindow arms the events of the beacon period starting at w.
func (t *Team) scheduleWindow(w sim.Time) {
	cfg := t.cfg
	if w >= cfg.DurationS {
		return
	}
	t.sim.At(w, func() { t.startWindow(w) })
	t.sim.At(w+cfg.TransmitPeriodS, func() { t.endWindow(w) })
	t.scheduleWindow(w + cfg.BeaconPeriodS)
}

// startWindow wakes the team, refreshes the MRMM mesh, disseminates SYNC,
// and schedules the window's beacons.
func (t *Team) startWindow(w sim.Time) {
	cfg := t.cfg
	t.tracer.Begin(0, "sampling-window", float64(w), nil)
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
		r := r
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
			t.sim.Schedule(skew+guard+slot, func() { t.sendBeacon(r) })
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
	payload := BeaconPayload{Sender: r.id, Pos: pos}
	if !r.equipped {
		// Secondary beacon: advertise the estimate, not the truth — the
		// robot does not know its true position.
		payload.Pos = r.reckoner.Estimate()
		payload.Secondary = true
	}
	if r.nic.Send(network.KindBeacon, network.BeaconBytes, payload) == nil {
		t.beaconsSent++
		// Guard the args map: building it unconditionally would allocate
		// even when tracing is off.
		if t.tracer != nil {
			t.tracer.Instant(0, "mac-frame", float64(now), map[string]any{
				"robot": r.id, "secondary": payload.Secondary,
			})
		}
		t.emit(EventBeaconSent, r.id, payload.Pos, 0, 0)
	}
}

// flushBeaconQueues applies every robot's queued beacon observations,
// fanning robots with pending work across a bounded worker pool. Per-robot
// localizer state is disjoint, each queue is applied FIFO by exactly one
// goroutine, and no RNG stream is shared across robots, so the grids a
// flush produces are byte-identical at any worker count — the pool only
// changes which OS thread does the arithmetic.
func (t *Team) flushBeaconQueues() {
	var busy []*robot
	for _, r := range t.robots {
		if len(r.pending) > 0 {
			t.queueDepth.Observe(len(r.pending))
			busy = append(busy, r)
		}
	}
	t.flushBusy.Observe(len(busy))
	// Trace the belief updates serially, before the worker fan-out: the
	// robots' queue depths are still intact here, and emitting from the
	// single-threaded event loop keeps the event order deterministic at
	// any worker count.
	if t.tracer != nil {
		nowS := float64(t.sim.Now())
		for _, r := range busy {
			t.tracer.Complete(1+r.id, "belief-update", nowS, 0, map[string]any{
				"beacons": len(r.pending),
			})
		}
	}
	workers := t.updateWorkers
	if workers > len(busy) {
		workers = len(busy)
	}
	if workers <= 1 {
		for _, r := range busy {
			r.applyPending()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(busy) {
					return
				}
				busy[i].applyPending()
			}
		}()
	}
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
	t.tracer.End(0, float64(now))
	for _, r := range t.robots {
		if r.failed {
			continue
		}
		if !r.equipped {
			beacons := r.loc.BeaconCount()
			fixed := r.loc.Ready()
			r.finalizeWindow()
			if len(t.observers) > 0 {
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
		r := r
		sleepAt := float64(w+cfg.TransmitPeriodS) + r.clockErr
		if sleepAt < now {
			sleepAt = now
		}
		t.sim.At(sleepAt, func() {
			if r.failed || r.crashed {
				return
			}
			r.nic.Sleep()
			t.emitSimple(EventSleep, r.id)
		})
		wakeAt := float64(w+cfg.BeaconPeriodS) + r.clockErr
		if wakeAt <= sleepAt {
			wakeAt = sleepAt
		}
		if wakeAt < float64(cfg.DurationS) {
			t.sim.At(wakeAt, func() {
				if r.failed || r.crashed {
					return
				}
				r.nic.Wake()
				t.emitSimple(EventWake, r.id)
			})
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

// Telemetry returns the run's counts (the series it publishes into
// telemetry.Default), read from its own objects. Valid after RunContext.
func (t *Team) Telemetry() telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	t.publish(reg)
	return reg.Snapshot()
}

// publish adds the run's counts to reg.
func (t *Team) publish(reg *telemetry.Registry) {
	t.sim.Publish(reg)
	t.med.Publish(reg)
	for _, r := range t.robots {
		r.nic.Publish(reg)
		if g, ok := r.loc.(*bayes.Grid); ok {
			g.Publish(reg)
		}
		reg.Add("cocoa.beacons_queued", r.beaconsApplied)
		reg.Add("cocoa.beacons_applied", r.beaconsApplied-len(r.pending)) // queued, less still pending
		reg.Add("cocoa.fixes", r.fixes)
		reg.Add("cocoa.fix_misses", r.missedWindows)
		reg.Add("cocoa.syncs_received", r.syncsReceived)
	}
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
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	team, err := newTeam(cfg, nil, referenceFrom(ctx))
	if err != nil {
		return nil, err
	}
	return team.RunContext(ctx)
}
