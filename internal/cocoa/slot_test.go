package cocoa

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cocoa/internal/faults"
	"cocoa/internal/geom"
)

// scratchVariants is the configuration matrix the byte-identity suite runs:
// every localizer backend plus the modes whose state differs structurally
// (odometry-only allocates no grids at all, faults arm extra streams).
// "grid-eager" is the base config run on the eager grid statistics.
func scratchVariants() map[string]Config {
	base := testConfig()
	base.DurationS = 150

	ekf := base
	ekf.Localizer = LocalizerEKF

	mcl := base
	mcl.Localizer = LocalizerParticle
	mcl.Particles = 400

	odo := base
	odo.Mode = ModeOdometryOnly

	hostile := base
	hostile.SecondaryBeacons = true
	hostile.EnableReporting = true
	hostile.Faults.GE = faults.Bursty(0.5, faults.DefaultBurstFrames)
	hostile.Faults.CrashFraction = 0.25
	hostile.Faults.CrashMeanDownS = 40
	hostile.Faults.OutlierProb = 0.05

	return map[string]Config{
		"grid": base, "grid-eager": base, "ekf": ekf, "mcl": mcl,
		"odometry-only": odo, "hostile": hostile,
	}
}

// scratchWarmups are the teams the slot-reuse tests warm a slot with,
// each leaving state the next team must fully overwrite: a larger team of
// another shape (robots, beacon queues and MRMM state beyond the next
// team's size; reporting agents, fault filters and crashed, detached
// stations; a grid geometry that forces the allocate path), an
// unsynchronized team whose robots end with skewed clocks and a schedule
// they never heard, and an odometry-only team (powered-off NICs, no
// protocols or localizers).
func scratchWarmups() map[string]Config {
	big := faultyConfig()
	big.Mode = ModeCombined
	big.NumRobots = 24
	big.NumEquipped = 10
	big.EnableReporting = true
	big.DurationS = 100
	big.GridCellM = 8
	big.Seed = 99

	unsynced := testConfig()
	unsynced.DisableSync = true
	unsynced.ClockDriftSigmaS = 0.5
	unsynced.Faults.SkewMaxS = 2
	unsynced.DurationS = 100
	unsynced.Seed = 97

	odo := testConfig()
	odo.Mode = ModeOdometryOnly
	odo.NumRobots = 16
	odo.DurationS = 100
	odo.Seed = 98

	return map[string]Config{"big-faulty-reporting": big, "unsynced": unsynced, "odometry-only": odo}
}

// A run on a recycled slot must be byte-identical to a run on a new slot
// (NewTeamContext) of the same config — including when the slot is warm
// from a run of a *different* config, so recycled streams, robots, medium,
// grids, and result buffers all carry state that must be fully
// overwritten.
func TestScratchByteIdentity(t *testing.T) {
	// A local pool: one slot, recycled by every run below.
	var p slotPool
	for name, cfg := range scratchVariants() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if name == "grid-eager" {
				ctx = WithEagerStats(ctx)
			}
			fresh := runNewTeam(t, ctx, cfg)
			var got *Result
			for warmName, warm := range scratchWarmups() {
				if _, err := p.run(nil, warm); err != nil {
					t.Fatal(err)
				}
				var err error
				if got, err = p.run(ctx, cfg); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, got) {
					t.Errorf("result on a slot warm from %s differs from a new-slot run", warmName)
				}
			}
			// Second pass on the now-warm slot with a released result:
			// exercises grid reuse (matching geometry) and result recycling.
			p.release(got)
			again, err := p.run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, again) {
				t.Errorf("second slot reuse diverged from a new-slot run")
			}
		})
	}
}

// runNewTeam runs cfg on a team built on a new slot under the reference
// selection ctx carries.
func runNewTeam(t *testing.T, ctx context.Context, cfg Config) *Result {
	t.Helper()
	team, err := NewTeamContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := team.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The free list lends the most recently parked slot first, and parks at
// most maxParked slots however many are returned.
func TestSlotPoolRecyclesSlots(t *testing.T) {
	var p slotPool
	s := p.get()
	p.put(s)
	if again := p.get(); again != s {
		t.Fatal("a parked slot was not the next one lent")
	}
	borrowed := make([]*slot, maxParked+2)
	for i := range borrowed {
		borrowed[i] = p.get()
	}
	for _, s := range borrowed {
		p.put(s)
	}
	if len(p.slots) != maxParked {
		t.Fatalf("%d slots parked, want the cap %d", len(p.slots), maxParked)
	}
	for i := 0; i < maxParked+2; i++ {
		p.release(&Result{})
	}
	if len(p.results) != maxParked {
		t.Fatalf("%d results parked, want the cap %d", len(p.results), maxParked)
	}
}

// Concurrent runs on one pool each hold a slot and a Result of their own:
// goroutines interleaving two geometries and releasing every Result still
// get a new slot's bytes.
func TestSlotPoolConcurrentRuns(t *testing.T) {
	a := testConfig()
	a.DurationS = 100
	b := a
	b.GridCellM = 8
	b.Seed = 5
	cfgs := []Config{a, b}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustMarshal(t, runNewTeam(t, context.Background(), cfg))
	}
	var p slotPool
	var wg sync.WaitGroup
	for g := 0; g < 2*maxParked; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % len(cfgs)
				res, err := p.run(context.Background(), cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d run %d: result differs from a new-slot run (err %v)", g, k, err)
				}
				p.release(res)
			}
		}()
	}
	wg.Wait()
	if len(p.slots) > maxParked || len(p.results) > maxParked {
		t.Errorf("%d slots and %d results parked, cap %d", len(p.slots), len(p.results), maxParked)
	}
}

// A NewTeam team parks its slot when it runs, and the next NewTeam reuses
// it, yet the first team's Telemetry is unchanged by any later run: the
// counts the slot owns were copied into the team before it was parked.
// Runs on the process-wide pool, so it must not be parallel.
func TestTeamTelemetrySurvivesSlotReuse(t *testing.T) {
	cfg := faultyConfig()
	cfg.EnableReporting = true
	cfg.DurationS = 150
	a, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	want := a.Telemetry()
	// Every series the slot's objects count must have moved, or the
	// comparison below could not see it overwritten. (Energy and MRMM
	// counts reach the Result, not the telemetry.)
	c := counterMap(want)
	for _, name := range []string{
		"sim.events_dispatched", "mac.sent", "mac.pool_hits", "network.sent",
		"network.delivered", "network.fault_drops.beacon", "faults.drops.loss",
		"faults.outliers", "cocoa.beacons_queued", "cocoa.fixes", "cocoa.syncs_received",
	} {
		if c[name] == 0 {
			t.Errorf("degenerate run telemetry: %s is 0", name)
		}
	}
	if c["bayes.apply.nearest"]+c["bayes.apply.lerp"] == 0 {
		t.Errorf("degenerate run telemetry: no bayes applies")
	}
	for i := 0; i < 4; i++ {
		other := cfg
		other.Seed = 77 + int64(i)
		other.EnableReporting = i%2 == 0
		if i%2 == 1 {
			// Another size and geometry, fault-free; the even runs recycle
			// a's grids with more robots than a had.
			other.NumRobots = 8
			other.NumEquipped = 4
			other.GridCellM = 8
			other.Faults = faults.Config{}
		} else {
			other.NumRobots = 20
			other.NumEquipped = 8
		}
		b, err := NewTeam(other)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && b.slot != a.slot {
			t.Fatal("the next NewTeam did not reuse the slot the run parked")
		}
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Telemetry(); !reflect.DeepEqual(got, want) {
		t.Errorf("Telemetry changed after its slot served other teams\nbefore: %+v\nafter:  %+v", want, got)
	}
}

// A config that fails Validate borrows no slot, and a built team's slot is
// parked exactly once: when the team runs, on any exit, and not again on a
// rejected second run.
func TestSlotPoolParksOnce(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	var p slotPool
	parked := newSlot()
	p.put(parked)
	bad := cfg
	bad.NumRobots = 0
	if _, err := p.team(bad, reference{}); err == nil {
		t.Fatal("invalid config built a team")
	}
	if len(p.slots) != 1 || p.slots[0] != parked {
		t.Fatalf("invalid config changed the parked slots: %d parked", len(p.slots))
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), canceled} {
		team, err := p.team(cfg, reference{})
		if err != nil {
			t.Fatal(err)
		}
		if team.slot != parked || len(p.slots) != 0 {
			t.Fatalf("team did not borrow the parked slot (%d still parked)", len(p.slots))
		}
		_, err = team.run(ctx, &p)
		if (err != nil) != (ctx == canceled) {
			t.Fatalf("run: err = %v", err)
		}
		if _, err := team.run(ctx, &p); err == nil {
			t.Fatal("second run of one team succeeded")
		}
		if len(p.slots) != 1 || p.slots[0] != parked {
			t.Fatalf("after the run %d slots parked, want the team's one", len(p.slots))
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A released Result's buffers must actually be recycled: the next run from
// the pool writes into the same backing arrays.
func TestScratchRecyclesResultBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	var p slotPool
	res, err := p.run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.PerRobot) == 0 || len(res.PerRobot[0]) == 0 {
		t.Fatal("run produced no samples")
	}
	times0 := &res.Times[0]
	per0 := &res.PerRobot[0][0]
	p.release(res)
	res2, err := p.run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("released Result not recycled")
	}
	if &res2.Times[0] != times0 || &res2.PerRobot[0][0] != per0 {
		t.Error("recycled Result reallocated its buffers")
	}
}

// The grid arena's retained memory is bounded by the largest team built
// on the slot, not by the number of geometries it has served: a
// long-lived slot fed a stream of distinct geometries (a service taking raw
// configs from clients) must not accumulate one team's worth of grids per
// geometry.
func TestScratchGridArenaBounded(t *testing.T) {
	paper := testConfig()
	coarse := testConfig()
	coarse.NumRobots = 16
	coarse.NumEquipped = 8
	coarse.GridCellM = 8
	small := testConfig()
	small.NumRobots = 6
	small.NumEquipped = 3
	small.Area = geom.Square(120)
	geometries := []Config{paper, coarse, small}

	sc := newSlot()
	maxGrids, maxCells := 0, 0
	for round := 0; round < 3; round++ {
		for i, cfg := range geometries {
			// Step the cell size slightly each round so every round brings
			// geometries the slot has never seen.
			cfg.GridCellM += 0.25 * float64(round)
			if _, err := newTeam(cfg, sc, reference{}); err != nil {
				t.Fatal(err)
			}
			if sc.gridsUsed == 0 {
				t.Fatalf("round %d geometry %d: team drew no grids from the arena", round, i)
			}
			nx, ny := sc.grids[0].Dims()
			maxGrids = max(maxGrids, sc.gridsUsed)
			maxCells = max(maxCells, sc.gridsUsed*nx*ny)

			if len(sc.grids) > maxGrids {
				t.Errorf("round %d geometry %d: arena holds %d grids, largest team used %d",
					round, i, len(sc.grids), maxGrids)
			}
			cells, stale := 0, 0
			for _, g := range sc.grids {
				if g.Area() != cfg.Area || g.CellSize() != cfg.GridCellM {
					stale++
				}
				gx, gy := g.Dims()
				cells += gx * gy
			}
			if stale > 0 {
				t.Errorf("round %d geometry %d: arena retains %d grids of stale geometries", round, i, stale)
			}
			if cells > maxCells {
				t.Errorf("round %d geometry %d: arena holds %d cells, largest team used %d",
					round, i, cells, maxCells)
			}
			for _, g := range sc.grids[len(sc.grids):cap(sc.grids)] {
				if g != nil {
					t.Errorf("round %d geometry %d: dropped grid still reachable from the arena's backing array", round, i)
					break
				}
			}
		}
	}
}

// allocBytesPerRun measures the average heap bytes one call of f allocates.
// TotalAlloc is monotonic (GC never decreases it), so the measurement is
// stable without disabling collection.
func allocBytesPerRun(f func()) float64 {
	const runs = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// The slot's reason to exist: a team built and run on a warm slot
// allocates a small fraction of what one on a new slot does — objects
// (the robots and everything they own are re-initialised in place) and
// bytes (the belief grids and the ~5 KB lagged-Fibonacci state vector
// behind every stream). The team is swarm-shaped, where per-robot
// construction dominates set-up. The pins are ratios, not absolute counts,
// so they stay meaningful as the engine evolves.
func TestScratchReuseAllocs(t *testing.T) {
	cfg := swarmConfig(200)
	var p slotPool
	// Warm everything the comparison should not see: the process-wide
	// calibration cache, the pool's slot, and the runtime itself.
	if _, err := p.run(nil, cfg); err != nil {
		t.Fatal(err)
	}
	fresh := func() {
		team, err := NewTeamContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := team.run(context.Background(), &slotPool{}); err != nil {
			t.Fatal(err)
		}
	}
	reused := func() {
		res, err := p.run(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.release(res)
	}

	freshAllocs := testing.AllocsPerRun(3, fresh)
	reusedAllocs := testing.AllocsPerRun(3, reused)
	t.Logf("objects per build and run: new slot %.0f, warm slot %.0f", freshAllocs, reusedAllocs)
	if reusedAllocs > freshAllocs/10 {
		t.Errorf("warm-slot build and run allocates %.0f objects, new-slot %.0f: want at most a tenth",
			reusedAllocs, freshAllocs)
	}

	freshBytes := allocBytesPerRun(fresh)
	reusedBytes := allocBytesPerRun(reused)
	t.Logf("bytes per build and run: new slot %.0f, warm slot %.0f", freshBytes, reusedBytes)
	if reusedBytes > freshBytes/3 {
		t.Errorf("warm-slot run allocates %.0f B, new-slot %.0f B: want at least a 3x drop",
			reusedBytes, freshBytes)
	}
}

// A run on a warm slot allocates per window, not per frame: the MAC's
// backoff retries and the beacon and MRMM payloads are pooled, so four
// beacons per window — four times the beacons, and more CSMA retries, over
// the same windows — allocate no more objects than one.
func TestWarmSlotAllocsFlatInTraffic(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	quick := func(beacons int) Config {
		cfg := DefaultConfig() // the paper deployment at the quick scale
		cfg.NumEquipped = int(float64(cfg.NumEquipped)/float64(cfg.NumRobots)*12 + 0.5)
		cfg.NumRobots = 12
		cfg.DurationS = 300
		cfg.Calibration.Samples = 60000
		cfg.GridCellM = 4
		cfg.BeaconsPerWindow = beacons
		return cfg
	}
	one, four := quick(1), quick(4)
	ctx := WithFlushWorkers(context.Background(), 1)
	var p slotPool
	run := func(cfg Config) *Result {
		res, err := p.run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Size the slot for the busier run, and warm the calibration cache.
	busy, quiet := run(four), run(one)
	t.Logf("frames and retries per run: %d and %d at 1 beacon per window, %d and %d at 4",
		quiet.MAC.TxRequests, quiet.MAC.BackoffEvents, busy.MAC.TxRequests, busy.MAC.BackoffEvents)
	// A per-frame or per-retry allocation must show above the tolerance.
	if busy.MAC.BackoffEvents < quiet.MAC.BackoffEvents+10 || busy.MAC.TxRequests < quiet.MAC.TxRequests+10 {
		t.Fatal("4 beacons per window add too little traffic for the guard to see")
	}
	p.release(busy)
	p.release(quiet)
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(3, func() { p.release(run(cfg)) })
	}
	oneAllocs, fourAllocs := allocs(one), allocs(four)
	t.Logf("objects per warm run: %.0f at 1 beacon per window, %.0f at 4", oneAllocs, fourAllocs)
	if math.Abs(fourAllocs-oneAllocs) > 2 {
		t.Errorf("warm runs allocate %.0f objects at 4 beacons per window, %.0f at 1: allocation grows with traffic",
			fourAllocs, oneAllocs)
	}
}

// Building a team on a warm slot allocates per team, not per robot: the
// object count is the same for 100 robots as for 400.
func TestWarmNewTeamAllocsFlatInRobots(t *testing.T) {
	small, large := swarmConfig(100), swarmConfig(400)
	var p slotPool
	build := func(cfg Config) func() {
		return func() {
			team, err := p.team(cfg, reference{})
			if err != nil {
				t.Fatal(err)
			}
			p.put(team.slot) // a team that never runs parks nothing itself
		}
	}
	// Size the slot for the larger team, and warm the calibration cache.
	if _, err := p.run(nil, large); err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(nil, small); err != nil {
		t.Fatal(err)
	}
	smallAllocs := testing.AllocsPerRun(5, build(small))
	largeAllocs := testing.AllocsPerRun(5, build(large))
	t.Logf("objects per warm NewTeam: %.0f for %d robots, %.0f for %d",
		smallAllocs, small.NumRobots, largeAllocs, large.NumRobots)
	if largeAllocs > smallAllocs {
		t.Errorf("warm NewTeam allocates %.0f objects for %d robots, %.0f for %d: grows with the team",
			largeAllocs, large.NumRobots, smallAllocs, small.NumRobots)
	}
}

// newResult reserves every series row for the run's samples, so sampling
// never grows a row, but within a fixed budget: Config bounds no
// magnitudes, so a valid config can ask for a billion sampling ticks.
func TestNewResultReservesWithinBudget(t *testing.T) {
	tracked := []int{0, 1, 2}
	reserved := func(res *Result) (total, min int) {
		rows := append([][]float64{res.Times, res.AvgError}, res.PerRobot...)
		min = cap(rows[0])
		for _, row := range rows {
			if len(row) != 0 {
				t.Fatalf("new Result has a row of %d samples", len(row))
			}
			total += cap(row)
			min = minInt(min, cap(row))
		}
		return total, min
	}

	cfg := testConfig()
	if _, least := reserved(newResult(cfg, tracked)); least != maxSampleTicks(cfg) {
		t.Errorf("a %d-tick run reserved rows of %d samples", maxSampleTicks(cfg), least)
	}

	huge := testConfig()
	huge.DurationS = 1e9
	if err := huge.Validate(); err != nil {
		t.Fatal(err)
	}
	res := newResult(huge, tracked)
	total, least := reserved(res)
	if total > maxReservedSamples {
		t.Errorf("a %d-tick run reserved %d samples, budget %d", maxSampleTicks(huge), total, maxReservedSamples)
	}
	if least == 0 {
		t.Error("an over-budget run reserved nothing for some row")
	}
	// Past the reservation a row grows by append, leaving its neighbors
	// intact.
	for i := 0; i <= least; i++ {
		res.Times = append(res.Times, float64(i))
	}
	res.AvgError = append(res.AvgError, -1)
	if res.Times[0] != 0 || res.AvgError[0] != -1 {
		t.Error("a row grown past its reservation clobbered another row")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
