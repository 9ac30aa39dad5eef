package mac

import (
	"math"
	"reflect"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

// swarmModel is the test radio: short-range enough that a spread-out
// deployment actually exercises the bulk-skip path.
func swarmModel() radio.Model {
	m := radio.DefaultModel()
	m.TxPowerDBm = -10
	return m
}

// workloadTrace captures everything observable about one workload run.
type workloadTrace struct {
	Stats  Stats
	Frames [][]Frame
	RSSIs  [][]float64
	tel    medTel
}

// runChurnWorkload drives one medium through a deterministic schedule of
// sends, bounded moves, detaches, and re-attaches. Every source of
// randomness outside the MAC itself comes from dedicated streams of the
// same seed, so two invocations differ only in the configured neighbor
// index.
func runChurnWorkload(t *testing.T, idx NeighborIndex, seed int64) workloadTrace {
	t.Helper()
	return runChurnOn(t, sim.New(), new(Medium), idx, seed)
}

// runChurnOn is runChurnWorkload on simulator s and medium med, reset and
// re-initialised first.
func runChurnOn(t *testing.T, s *sim.Simulator, med *Medium, idx NeighborIndex, seed int64) workloadTrace {
	t.Helper()
	const (
		n      = 40
		side   = 600.0
		slackM = 4.0
		moveDt = 0.25
		sendDt = 0.02
		dur    = 6.0
	)
	s.Reset()
	cfg := DefaultConfig(swarmModel())
	cfg.NeighborIndex = idx
	cfg.IndexSlackM = slackM
	if err := med.Init(s, cfg, sim.NewRNG(seed).Stream("mac")); err != nil {
		t.Fatal(err)
	}

	posRng := sim.NewRNG(seed).Stream("positions")
	eps := make([]*fakeEndpoint, n)
	attached := make([]bool, n)
	for i := range eps {
		eps[i] = &fakeEndpoint{
			pos:       geom.Vec2{X: posRng.Float64() * side, Y: posRng.Float64() * side},
			listening: true,
		}
		med.Attach(i, eps[i])
		attached[i] = true
	}

	// Bounded random walk: each station moves at most slackM between
	// consecutive re-indexings — the index freshness contract. A fake jumps
	// rather than following its reported leg, so each jump is re-synced
	// with UpdatePosition (re-attaching reads the endpoint anyway).
	moveRng := sim.NewRNG(seed).Stream("moves")
	s.EachTick(moveDt, moveDt, func(now sim.Time) {
		for i, ep := range eps {
			ang := moveRng.Float64() * 2 * math.Pi
			r := moveRng.Float64() * slackM
			ep.pos.X += r * math.Cos(ang)
			ep.pos.Y += r * math.Sin(ang)
			// Detach/attach churn: every station cycles through an outage.
			switch {
			case attached[i] && int(now*4)%16 == i%16:
				med.Detach(i)
				attached[i] = false
			case !attached[i] && int(now*4+1)%8 == i%8:
				med.Attach(i, ep)
				attached[i] = true
			case attached[i]:
				med.UpdatePosition(i)
			}
		}
	})

	frame := 0
	s.EachTick(sendDt, sendDt, func(now sim.Time) {
		from := (frame*7 + 3) % n
		frame++
		if attached[from] {
			if err := med.Send(from, Frame{Kind: 1, Bytes: 56}); err != nil {
				t.Fatalf("send from %d: %v", from, err)
			}
		}
	})

	s.RunUntil(dur)

	tr := workloadTrace{Stats: med.Stats(), tel: med.tel}
	for _, ep := range eps {
		tr.Frames = append(tr.Frames, ep.got)
		tr.RSSIs = append(tr.RSSIs, ep.rssis)
	}
	return tr
}

// TestGridScanEquivalence is the mac-level differential harness: under
// bounded motion, detach/attach churn, and CSMA contention, the spatial
// index must reproduce the scan path's stats, deliveries, and sampled RSSI
// values bit for bit.
func TestGridScanEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		scan := runChurnWorkload(t, IndexScan, seed)
		grid := runChurnWorkload(t, IndexGrid, seed)
		if !reflect.DeepEqual(scan.Stats, grid.Stats) {
			t.Errorf("seed %d: stats diverged\nscan: %+v\ngrid: %+v", seed, scan.Stats, grid.Stats)
		}
		if !reflect.DeepEqual(scan.Frames, grid.Frames) {
			t.Errorf("seed %d: delivered frames diverged", seed)
		}
		if !reflect.DeepEqual(scan.RSSIs, grid.RSSIs) {
			t.Errorf("seed %d: delivered RSSI values diverged", seed)
		}
		if scan.Stats.Delivered == 0 {
			t.Errorf("seed %d: degenerate workload, nothing delivered", seed)
		}
	}
}

// A medium re-initialised after other runs — under the other index, with
// detached stations and a frame still on the air — behaves exactly like a
// new one, down to its pool telemetry.
func TestInitRewindsMedium(t *testing.T) {
	s, med := sim.New(), new(Medium)
	runChurnOn(t, s, med, IndexScan, 3)
	runChurnOn(t, s, med, IndexGrid, 4)
	if err := med.Send(med.ordered[0].id, Frame{Kind: 1, Bytes: 56}); err != nil {
		t.Fatal(err)
	}
	if med.Idle() || len(med.inflight) == 0 {
		t.Fatal("the warm-up left no frame on the air")
	}
	for _, seed := range []int64{1, 2} {
		want := runChurnWorkload(t, IndexGrid, seed)
		got := runChurnOn(t, s, med, IndexGrid, seed)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: re-initialised medium diverged from a new one\nnew:    %+v %+v\nreused: %+v %+v",
				seed, want.Stats, want.tel, got.Stats, got.tel)
		}
	}
}

// TestGridPrunesVisits asserts the index is not equivalence-by-doing-the-
// same-work: on a spread-out swarm the per-frame receiver visits must drop
// by a large factor. Deterministic counters, not wall time, prove the claim.
func TestGridPrunesVisits(t *testing.T) {
	t.Parallel()
	scan := runChurnWorkload(t, IndexScan, 5)
	grid := runChurnWorkload(t, IndexGrid, 5)
	scanVisits, gridVisits, gridSkips := scan.tel.visits, grid.tel.visits, grid.tel.indexSkips

	if !reflect.DeepEqual(scan.Stats, grid.Stats) {
		t.Fatalf("stats diverged\nscan: %+v\ngrid: %+v", scan.Stats, grid.Stats)
	}
	if gridVisits*3 > scanVisits {
		t.Errorf("index visited %d stations vs scan's %d; expected at least 3x pruning",
			gridVisits, scanVisits)
	}
	if gridSkips == 0 {
		t.Error("index never bulk-skipped; the workload does not exercise the grid")
	}
	if gridVisits+gridSkips < scanVisits {
		t.Errorf("visits (%d) + bulk skips (%d) < scan visits (%d): candidates went missing",
			gridVisits, gridSkips, scanVisits)
	}
}

// TestDetachCompacts pins the Detach fix: a detached station stops being
// visited (and stops consuming per-frame work) immediately, in both index
// modes, and the accounting conservation law holds against the live station
// count.
func TestDetachCompacts(t *testing.T) {
	for _, idx := range []NeighborIndex{IndexScan, IndexGrid} {
		s := sim.New()
		cfg := DefaultConfig(radio.DefaultModel())
		cfg.NeighborIndex = idx
		med, err := NewMedium(s, cfg, sim.NewRNG(1).Stream("mac"))
		if err != nil {
			t.Fatal(err)
		}
		const n = 10
		eps := make([]*fakeEndpoint, n)
		for i := range eps {
			eps[i] = &fakeEndpoint{pos: geom.Vec2{X: float64(i) * 5}, listening: true}
			med.Attach(i, eps[i])
		}
		// Half the swarm crashes.
		for i := n / 2; i < n; i++ {
			med.Detach(i)
		}
		if err := med.Send(0, Frame{Kind: 1, Bytes: 56}); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(1)

		st := med.Stats()
		if got := st.Delivered + st.Collided + st.BelowSense + st.MissedAsleep; got != n/2-1 {
			t.Errorf("idx %d: %d receiver outcomes for %d live receivers", idx, got, n/2-1)
		}
		med.UpdatePositions()
		reg := telemetry.NewRegistry()
		counts := med.Counts()
		counts.Publish(reg)
		tel := med.tel
		for name, want := range map[string]int{
			"mac.sent": st.Sent, "mac.delivered": st.Delivered, "mac.collided": st.Collided,
			"mac.below_sense": st.BelowSense, "mac.missed_asleep": st.MissedAsleep,
			"mac.dropped_busy": st.DroppedBusy, "mac.backoffs": st.BackoffEvents,
			"mac.rssi_gate_skips": tel.gateSkips, "mac.receiver_visits": n/2 - 1,
			"mac.pool_hits": tel.poolHits, "mac.pool_misses": tel.poolMisses,
			"mac.index_cells_scanned": tel.indexCells, "mac.index_candidates": tel.indexCands,
			"mac.index_bulk_skips": tel.indexSkips, "mac.index_moves": tel.indexMoves,
			"mac.index_rebuilds": tel.indexRebuilds,
		} {
			if got := reg.Counter(name).Value(); got != int64(want) {
				t.Errorf("idx %d: %s = %d, want %d", idx, name, got, want)
			}
		}
		if idx == IndexGrid && (tel.indexRebuilds != 1 || tel.indexCells == 0 || tel.poolMisses == 0) {
			t.Errorf("idx %d: index work not counted: %+v", idx, tel)
		}
		for i := n / 2; i < n; i++ {
			if len(eps[i].got) != 0 || eps[i].rxDepth != 0 {
				t.Errorf("idx %d: detached station %d still reached", idx, i)
			}
		}
	}
}

// TestDetachVisitsDrop is the regression test for the crashed-swarm cost
// model: detaching half the stations must halve the per-frame visits.
func TestDetachVisitsDrop(t *testing.T) {
	t.Parallel()
	perFrame := func(detachHalf bool) int {
		s := sim.New()
		med, err := NewMedium(s, DefaultConfig(radio.DefaultModel()), sim.NewRNG(1).Stream("mac"))
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		for i := 0; i < n; i++ {
			med.Attach(i, &fakeEndpoint{pos: geom.Vec2{X: float64(i)}, listening: true})
		}
		if detachHalf {
			for i := n / 2; i < n; i++ {
				med.Detach(i)
			}
		}
		if err := med.Send(0, Frame{Kind: 1, Bytes: 56}); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(1)
		return med.tel.visits
	}

	full := perFrame(false)
	half := perFrame(true)
	if full != 19 || half != 9 {
		t.Errorf("visits per frame: full=%d half=%d, want 19 and 9", full, half)
	}
}

// TestDetachLifecycle covers the edge semantics: unknown ids, re-attach
// after detach, and replacement attach while indexed.
func TestDetachLifecycle(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(radio.DefaultModel())
	cfg.NeighborIndex = IndexGrid
	med, err := NewMedium(s, cfg, sim.NewRNG(1).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	a := &fakeEndpoint{pos: geom.Vec2{X: 0}, listening: true}
	b := &fakeEndpoint{pos: geom.Vec2{X: 10}, listening: true}
	med.Attach(0, a)
	med.Attach(1, b)

	med.Detach(99) // unknown: no-op
	med.Detach(1)
	med.Detach(1) // double detach: no-op
	if err := med.Send(0, Frame{Kind: 1, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1)
	if len(b.got) != 0 {
		t.Error("detached station received a frame")
	}
	if err := med.Send(1, Frame{Kind: 1, Bytes: 10}); err == nil {
		t.Error("detached station could send")
	}

	med.Attach(1, b) // recovery
	// Replacement attach while indexed: the new endpoint must take over the
	// grid slot (and the old one must never be visited again).
	b2 := &fakeEndpoint{pos: geom.Vec2{X: 12}, listening: true}
	med.Attach(1, b2)
	if err := med.Send(0, Frame{Kind: 1, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)
	if len(b.got) != 0 {
		t.Error("replaced endpoint still receiving")
	}
	if len(b2.got) != 1 {
		t.Errorf("replacement endpoint got %d frames, want 1", len(b2.got))
	}
}

// TestGridFallsBackOnDegenerateModel: a radio model whose far bracket is
// unbounded cannot prune anything; requesting the grid must quietly keep
// the scan path rather than build useless buckets.
func TestGridFallsBackOnDegenerateModel(t *testing.T) {
	model := radio.DefaultModel()
	// An absurd shadowing sigma pushes the plausibility threshold so low
	// its crossing distance overflows: rssiGate returns an unbounded far
	// bracket and no cell size exists.
	model.ShadowSigmaDB = 1e6
	cfg := DefaultConfig(model)
	cfg.NeighborIndex = IndexGrid
	s := sim.New()
	med, err := NewMedium(s, cfg, sim.NewRNG(1).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	if med.grid != nil {
		t.Fatal("grid built over a degenerate model")
	}
	// And the no-op position maintenance entry points stay safe.
	med.Attach(0, &fakeEndpoint{listening: true})
	med.UpdatePositions()
	med.UpdatePosition(0)
}

func TestConfigValidateIndexFields(t *testing.T) {
	base := DefaultConfig(radio.DefaultModel())
	bad := base
	bad.NeighborIndex = NeighborIndex(7)
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown NeighborIndex")
	}
	bad = base
	bad.IndexSlackM = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative IndexSlackM")
	}
	bad = base
	bad.IndexSlackM = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("accepted infinite IndexSlackM")
	}
	ok := base
	ok.NeighborIndex = IndexGrid
	ok.IndexSlackM = 2.5
	if err := ok.Validate(); err != nil {
		t.Errorf("rejected valid grid config: %v", err)
	}
}

// TestUpdatePositionSingle exercises the one-station re-bucket entry point.
func TestUpdatePositionSingle(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(swarmModel())
	cfg.NeighborIndex = IndexGrid
	med, err := NewMedium(s, cfg, sim.NewRNG(1).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	tx := &fakeEndpoint{pos: geom.Vec2{X: 0}, listening: true}
	rx := &fakeEndpoint{pos: geom.Vec2{X: 10}, listening: true}
	med.Attach(0, tx)
	med.Attach(1, rx)

	// Teleport the receiver far outside the neighborhood and re-bucket it:
	// the next frame must bulk-skip it.
	rx.pos = geom.Vec2{X: 5000}
	med.UpdatePosition(1)
	med.UpdatePosition(99) // unknown: no-op
	if err := med.Send(0, Frame{Kind: 1, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1)
	st := med.Stats()
	if st.BelowSense != 1 || st.Delivered != 0 {
		t.Errorf("stats after teleport: %+v, want exactly one BelowSense", st)
	}

	// And back in range again.
	rx.pos = geom.Vec2{X: 10}
	med.UpdatePosition(1)
	if err := med.Send(0, Frame{Kind: 1, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)
	if got := len(rx.got); got != 1 {
		t.Errorf("re-bucketed receiver got %d frames, want 1", got)
	}
}
