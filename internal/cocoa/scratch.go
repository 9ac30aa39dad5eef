package cocoa

import (
	"context"

	"cocoa/internal/bayes"
	"cocoa/internal/sim"
)

// Scratch is the reusable memory of one run slot. A sweep worker that
// executes replications back to back creates one Scratch and builds every
// team through it (NewTeamScratch / RunScratch); each new team then recycles
// the previous run's expensive state instead of reallocating it:
//
//   - the discrete-event simulator (calendar heap and event arena),
//   - every named RNG stream (each carries a ~5 KB lagged-Fibonacci state
//     vector, reseeded in place — see sim.RNGPool),
//   - the per-robot belief grids (reused via bayes.Grid.Reset whenever the
//     area and cell size match),
//   - Result buffers, for callers that explicitly return them with
//     ReleaseResult once a run's numbers have been extracted.
//
// Reuse is invisible in the results: a reseed is a complete stream reset and
// Grid.Reset restores the exact uniform prior, so a scratch-built run is
// byte-identical to a fresh one (pinned by TestScratchByteIdentity).
//
// A Scratch serves one live team at a time. Building a new team through a
// scratch invalidates the previous team built through it; the caller must
// be done with that team (though not with its Result — Results are only
// recycled via ReleaseResult). A Scratch is not safe for concurrent use.
type Scratch struct {
	sim  *sim.Simulator
	rngs *sim.RNGPool

	// grids is the belief-grid arena: grids[:gridsUsed] are handed out to
	// the current team, the rest are free for reuse.
	grids     []*bayes.Grid
	gridsUsed int

	// results holds Result values returned through ReleaseResult, ready to
	// be recycled by the next run.
	results []*Result

	// runs counts teams built through this scratch, to tell a cold first
	// use from a warm reuse (a team's cocoa.scratch_reuse).
	runs int
}

// NewScratch returns an empty run slot. The first team built through it
// allocates as a fresh run would; subsequent teams recycle.
func NewScratch() *Scratch {
	return &Scratch{sim: sim.New(), rngs: sim.NewRNGPool()}
}

// begin opens a new run slot: it recycles the simulator, the stream pool,
// and the grid arena, and returns the simulator plus the root RNG for the
// run's seed.
func (sc *Scratch) begin(seed int64) (*sim.Simulator, *sim.RNG) {
	sc.runs++
	sc.sim.Reset()
	sc.rngs.Recycle()
	sc.gridsUsed = 0
	return sc.sim, sc.rngs.Root(seed)
}

// grid hands out a belief grid for the given geometry, reusing a retained
// one when its dimensions match (Grid.Reset restores the exact uniform
// prior a fresh grid starts from) and allocating otherwise. The handed-out
// grid is always in StatsIncremental mode, NewGrid's default; the caller
// re-applies any reference override.
//
// On a miss every free grid has a geometry this team will never ask for (a
// team uses one geometry), so the free grids are dropped before the new one
// is appended. The arena therefore never holds more grids than the largest
// team built through the scratch, all of one geometry, however many
// geometries the scratch has served.
func (sc *Scratch) grid(cfg Config) (*bayes.Grid, error) {
	for i := sc.gridsUsed; i < len(sc.grids); i++ {
		g := sc.grids[i]
		if g.Area() == cfg.Area && g.CellSize() == cfg.GridCellM {
			sc.grids[i] = sc.grids[sc.gridsUsed]
			sc.grids[sc.gridsUsed] = g
			sc.gridsUsed++
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
	clear(sc.grids[sc.gridsUsed:])
	sc.grids = append(sc.grids[:sc.gridsUsed], g)
	sc.gridsUsed++
	return g, nil
}

// ReleaseResult returns a Result's buffers to the scratch for reuse by a
// later run. Call it only once nothing will read the Result again: the next
// run built through this scratch overwrites it in place. Releasing to a nil
// scratch or releasing a nil Result is a no-op.
func (sc *Scratch) ReleaseResult(res *Result) {
	if sc == nil || res == nil {
		return
	}
	sc.results = append(sc.results, res)
}

// takeResult pops a recycled Result if one is available, rewound to empty
// with its buffer capacities intact.
func (sc *Scratch) takeResult(cfg Config, tracked []int) *Result {
	n := len(sc.results)
	if n == 0 {
		return nil
	}
	res := sc.results[n-1]
	sc.results[n-1] = nil
	sc.results = sc.results[:n-1]
	res.reset(cfg, tracked)
	return res
}

// RunScratch assembles a deployment on the scratch and runs it under ctx —
// the replication-loop equivalent of RunContext. A nil scratch degenerates
// to RunContext exactly.
func RunScratch(ctx context.Context, cfg Config, sc *Scratch) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	team, err := newTeam(cfg, sc, referenceFrom(ctx))
	if err != nil {
		return nil, err
	}
	return team.RunContext(ctx)
}
