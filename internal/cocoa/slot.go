package cocoa

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"cocoa/internal/bayes"
	"cocoa/internal/mac"
	"cocoa/internal/mrmm"
	"cocoa/internal/sim"
)

// slot is the reusable memory of one run. Every team is built on a slot,
// and a team built on a slot that already served a run re-initialises that
// run's state in place instead of reallocating it:
//
//   - the discrete-event simulator (calendar heap and event arena),
//   - every named RNG stream (each carries a ~5 KB lagged-Fibonacci state
//     vector, reseeded in place — see sim.RNGPool),
//   - the MAC medium, with its stations, spatial-index buckets and
//     reception/transmission pools (mac.Medium.Init),
//   - the robots (robotSlab): each with its waypoint, dead reckoner, NIC
//     and energy meter, MRMM protocol (maps cleared, not remade), EKF and
//     particle filter, beacon queue, and event handlers bound once,
//   - the per-robot belief grids (reused via bayes.Grid.Reset whenever the
//     area and cell size match),
//   - the flush's busy-robot scratch list, and the storage the payloads of
//     beacon and MRMM frames on the air point into (mac.Arena).
//
// A new slot and a warm one run the same construction code (newTeam): the
// first use only finds nothing to keep. Reuse is invisible in the results:
// every component's Init rewinds it to what its constructor returns, a
// reseed is a complete stream reset, and Grid.Reset restores the exact
// uniform prior, so a run on a warm slot is byte-identical to one on a new
// slot, whatever size and mode of team the slot served before (pinned by
// TestScratchByteIdentity).
//
// A slot serves one team at a time. The team borrows it from a slotPool when
// it is built (slotPool.team) and parks it again when it runs (Team.run, the
// only parking site); a team that never runs keeps it until collected.
// Building the next team on the slot overwrites everything above, so before
// parking a run copies every count its Telemetry reads out of what the slot
// owns — the simulator's, the medium's, and each robot's NIC, belief grid,
// beacon and fix counts — into its team (Team.keepCounts). A slot is not
// safe for concurrent use.
type slot struct {
	sim  *sim.Simulator
	rngs *sim.RNGPool
	med  mac.Medium

	// robots are the robots of the teams built on the slot: the current
	// team has robots[:NumRobots]; the rest, left from a larger team, wait
	// unreferenced for a team that needs them.
	robots []*robot
	// busy is flushBeaconQueues' scratch list.
	busy []*robot
	// beacons and mesh hold the payloads of the beacon and MRMM frames on
	// the air, so sending one boxes no value into its frame. Both start
	// over once med has been idle (mac.Arena.Next).
	beacons mac.Arena[BeaconPayload]
	mesh    *mrmm.Frames

	// grids is the belief-grid arena: grids[:gridsUsed] are handed out to
	// the current team, the rest are free for reuse.
	grids     []*bayes.Grid
	gridsUsed int

	// runs counts teams built on this slot, to tell a cold first use from a
	// warm reuse (a team's cocoa.scratch_reuse).
	runs int
}

// newSlot returns an empty slot. The first team built on it allocates
// everything; later teams recycle.
func newSlot() *slot {
	s := &slot{sim: sim.New(), rngs: sim.NewRNGPool()}
	s.mesh = mrmm.NewFrames(&s.med)
	return s
}

// begin opens a new run on the slot: it recycles the simulator, the stream
// pool, and the grid arena, and returns the simulator plus the root RNG for
// the run's seed.
func (s *slot) begin(seed int64) (*sim.Simulator, *sim.RNG) {
	s.runs++
	s.sim.Reset()
	s.rngs.Recycle()
	s.gridsUsed = 0
	return s.sim, s.rngs.Root(seed)
}

// robotSlab returns the slot's first n robots, creating the missing ones
// with their handlers bound. newTeam re-initialises every one it gets.
func (s *slot) robotSlab(n int) []*robot {
	if have := len(s.robots); have < n {
		more := make([]robot, n-have)
		for i := range more {
			more[i].bind()
			s.robots = append(s.robots, &more[i])
		}
	}
	return s.robots[:n]
}

// grid hands out a belief grid for the given geometry, reusing a retained
// one when its dimensions match (Grid.Reset restores the exact uniform
// prior a new grid starts from) and allocating otherwise. The handed-out
// grid is always in StatsIncremental mode, NewGrid's default; the caller
// re-applies any reference override.
//
// On a miss every free grid has a geometry this team will never ask for (a
// team uses one geometry), so the free grids are dropped before the new one
// is appended. The arena therefore never holds more grids than the largest
// team built on the slot, all of one geometry, however many geometries the
// slot has served.
func (s *slot) grid(cfg Config) (*bayes.Grid, error) {
	for i := s.gridsUsed; i < len(s.grids); i++ {
		g := s.grids[i]
		if g.Area() == cfg.Area && g.CellSize() == cfg.GridCellM {
			s.grids[i] = s.grids[s.gridsUsed]
			s.grids[s.gridsUsed] = g
			s.gridsUsed++
			g.SetStatsMode(bayes.StatsIncremental)
			g.Reset()
			g.ResetTelemetry()
			return g, nil
		}
	}
	g, err := bayes.NewGrid(cfg.Area, cfg.GridCellM)
	if err != nil {
		return nil, err
	}
	clear(s.grids[s.gridsUsed:])
	s.grids = append(s.grids[:s.gridsUsed], g)
	s.gridsUsed++
	return g, nil
}

// maxParked bounds each of a slotPool's free lists. Each parked slot
// retains its high-water memory, so hoarding one per historical worker
// would defeat the purpose; more concurrent runs than this still get one
// slot each, and the surplus is dropped for the GC when they end.
const maxParked = 4

// slotPool is a capped free list of slots and of released Results. NewTeam
// and the package-level Run/RunContext borrow from the process-wide
// instance, runSlots, so recycling spans every run in the process:
// consecutive replications of a sweep, consecutive sweeps, consecutive
// service jobs, and consecutive NewTeam teams. Which slot a run draws is
// scheduling-dependent, but slot identity never influences results.
type slotPool struct {
	mu      sync.Mutex
	slots   []*slot
	results []*Result

	// cpus is the CPU budget: one per running team (Team.run), which never
	// waits for it, plus the helpers the teams' beacon flushes claim.
	cpus atomic.Int64
}

// claim takes up to want CPUs left under GOMAXPROCS without waiting and
// returns how many it took; the caller subtracts them from cpus when done.
func (p *slotPool) claim(want int) int {
	for {
		used := p.cpus.Load()
		n := max(min(int64(want), int64(runtime.GOMAXPROCS(0))-used), 0)
		if n == 0 || p.cpus.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// runSlots is the process-wide pool every NewTeam and package-level run
// borrows from.
var runSlots slotPool

// get pops the most recently parked slot, or returns a new one.
func (p *slotPool) get() *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.slots)
	if n == 0 {
		return newSlot()
	}
	s := p.slots[n-1]
	p.slots[n-1] = nil
	p.slots = p.slots[:n-1]
	return s
}

// put parks s for the next get, unless the free list is full.
func (p *slotPool) put(s *slot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slots) < maxParked {
		p.slots = append(p.slots, s)
	}
}

// release parks res for the next run's Result, unless the free list is
// full. A nil res is a no-op.
func (p *slotPool) release(res *Result) {
	if res == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.results) < maxParked {
		p.results = append(p.results, res)
	}
}

// result returns an empty Result for a run of cfg tracking the given
// robots: a released one rewound with its buffer capacities intact, or a
// new one.
func (p *slotPool) result(cfg Config, tracked []int) *Result {
	p.mu.Lock()
	n := len(p.results)
	if n == 0 {
		p.mu.Unlock()
		return newResult(cfg, tracked)
	}
	res := p.results[n-1]
	p.results[n-1] = nil
	p.results = p.results[:n-1]
	p.mu.Unlock()
	res.reset(cfg, tracked)
	return res
}

// team assembles cfg on a slot borrowed from p; running the team parks the
// slot in p again. A config that fails Validate borrows nothing.
func (p *slotPool) team(cfg Config, ref reference) (*Team, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTeam(cfg, p.get(), ref)
}

// run assembles cfg on a borrowed slot and runs it under ctx.
func (p *slotPool) run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	team, err := p.team(cfg, referenceFrom(ctx))
	if err != nil {
		return nil, err
	}
	return team.run(ctx, p)
}

// ReleaseResult hands res's buffers back for reuse by a later run. Call it
// at most once per Result, and only once nothing will read res again: a
// later run overwrites it in place. Releasing is optional; a Result that is
// never released is simply collected. A nil res is a no-op.
func ReleaseResult(res *Result) { runSlots.release(res) }
