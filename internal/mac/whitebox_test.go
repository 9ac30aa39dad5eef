package mac

import (
	"math"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// newGridTestMedium is newTestMedium with the spatial index enabled.
func newGridTestMedium(t *testing.T, seed int64) (*sim.Simulator, *Medium) {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(radio.DefaultModel())
	cfg.NeighborIndex = IndexGrid
	med, err := NewMedium(s, cfg, sim.NewRNG(seed).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	return s, med
}

func TestNewMediumRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(radio.DefaultModel())
	cfg.NeighborIndex = NeighborIndex(99)
	if _, err := NewMedium(sim.New(), cfg, sim.NewRNG(1).Stream("mac")); err == nil {
		t.Fatal("invalid NeighborIndex accepted")
	}
}

func TestMediumConfigAccessor(t *testing.T) {
	_, med := newGridTestMedium(t, 1)
	if med.Config().NeighborIndex != IndexGrid {
		t.Errorf("Config() = %+v, want the grid config back", med.Config())
	}
}

// rssiGate's bracket search must survive curves that never cross the
// threshold in either direction, and degenerate crossing estimates.
func TestRSSIGateSynthetic(t *testing.T) {
	always := func(float64) float64 { return 0 }    // forever above any threshold
	never := func(float64) float64 { return -1000 } // forever below

	for _, cross := range []float64{0, -5, math.Inf(1)} {
		near2, far2 := rssiGate(always, cross, -90)
		if near2 != -1 || !math.IsInf(far2, 1) {
			t.Errorf("cross=%v: got (%v, %v), want degenerate (-1, +Inf)", cross, near2, far2)
		}
	}

	// Curve below the threshold everywhere: the near probe halves to zero
	// and the far probe is accepted immediately.
	near2, far2 := rssiGate(never, 100, -90)
	if near2 != 0 {
		t.Errorf("never-curve near2 = %v, want 0", near2)
	}
	farProbe := 100.0 * 1.001
	if want := farProbe * farProbe; far2 != want {
		t.Errorf("never-curve far2 = %v, want %v", far2, want)
	}

	// Curve above the threshold everywhere: the far probe doubles until
	// the iteration cap and reports an unbounded bracket.
	near2, far2 = rssiGate(always, 100, -90)
	nearProbe := 100.0 * 0.999
	if want := nearProbe * nearProbe; near2 != want {
		t.Errorf("always-curve near2 = %v, want %v", near2, want)
	}
	if !math.IsInf(far2, 1) {
		t.Errorf("always-curve far2 = %v, want +Inf", far2)
	}

	// A real crossing: the brackets must tightly surround it.
	step := func(d float64) float64 {
		if d <= 50 {
			return -80
		}
		return -100
	}
	near2, far2 = rssiGate(step, 50, -90)
	if math.Sqrt(near2) > 50 || math.Sqrt(far2) <= 50 {
		t.Errorf("step crossing outside bracket [%v, %v]", math.Sqrt(near2), math.Sqrt(far2))
	}
}

// The index leaves stations it never bucketed alone: remove and update on
// an unindexed station are no-ops, and a double remove is harmless.
func TestGridIndexUnbucketedGuards(t *testing.T) {
	g := newGridIndex(10)
	st := &station{id: 1, ep: &fakeEndpoint{pos: geom.Vec2{X: 5}}}
	if g.update(st, geom.Vec2{X: 5}) {
		t.Error("update of an unindexed station reported a move")
	}
	g.remove(st)
	g.insert(st, geom.Vec2{X: 5})
	g.remove(st)
	g.remove(st)
	if len(g.cells.get(g.keyOf(geom.Vec2{X: 5}))) != 0 {
		t.Error("station still bucketed after remove")
	}
}

// TestCollectPrunesByIndexedPosition pins collect's pre-prune: a neighbor
// whose indexed position lies at or beyond the prune radius is dropped from
// the candidate set, one inside it survives in ID order, and +Inf disables
// pruning entirely. The stations attach out of ID order, so their ranks are
// renumbered before the query.
func TestCollectPrunesByIndexedPosition(t *testing.T) {
	_, m := newTestMedium(t, 1)
	m.grid = newGridIndex(50)
	mk := func(id int, p geom.Vec2) *station {
		m.Attach(id, &fakeEndpoint{pos: p, listening: true})
		return m.stations[id]
	}
	mk(2, geom.Vec2{X: 40}) // same 3x3 neighborhood, beyond the prune radius
	near := mk(1, geom.Vec2{X: 10})
	self := mk(0, geom.Vec2{})

	got := m.grid.collect(geom.Vec2{}, 20*20, m.ordered)
	if len(got) != 2 || got[0] != self || got[1] != near {
		t.Fatalf("pruned collect returned %d candidates, want [self, near]", len(got))
	}
	if n := len(m.grid.collect(geom.Vec2{}, math.Inf(1), m.ordered)); n != 3 {
		t.Fatalf("unpruned collect returned %d candidates, want 3", n)
	}
}

// collect's prune is strict: an entry whose indexed position lies exactly
// at the prune radius is dropped, and one a float step inside it is kept.
func TestCollectPruneBoundaryIsStrict(t *testing.T) {
	_, m := newTestMedium(t, 1)
	m.grid = newGridIndex(50)
	for id, x := range []float64{20, math.Nextafter(20, 0)} {
		m.Attach(id, &fakeEndpoint{pos: geom.Vec2{X: x}, listening: true})
	}
	got := m.grid.collect(geom.Vec2{}, 20*20, m.ordered)
	if len(got) != 1 || got[0] != m.stations[1] {
		ids := make([]int, len(got))
		for i, st := range got {
			ids[i] = st.id
		}
		t.Fatalf("collect at prune radius 20 kept stations %v, want only the one inside it (1)", ids)
	}
}

// Expired transmissions linger in the candidate structures until their
// end-of-frame reap; carrier sensing must skip them in both modes.
func TestCarrierBusySkipsExpiredTransmissions(t *testing.T) {
	mk := func(med *Medium) {
		a := &fakeEndpoint{pos: geom.Vec2{}, listening: true}
		b := &fakeEndpoint{pos: geom.Vec2{X: 5}, listening: true}
		med.Attach(0, a)
		med.Attach(1, b)
	}

	_, scan := newTestMedium(t, 31)
	mk(scan)
	sta, stb := scan.stations[0], scan.stations[1]
	expired := &transmission{from: stb, end: -1, pos: geom.Vec2{X: 5}}
	scan.inflight = append(scan.inflight, expired)
	if scan.carrierBusy(sta) {
		t.Error("scan: expired transmission sensed as busy")
	}

	_, grid := newGridTestMedium(t, 32)
	mk(grid)
	sta, stb = grid.stations[0], grid.stations[1]
	// An expired transmission of b's in the neighborhood, and an expired
	// own transmission of a's: neither may read as busy.
	expired = &transmission{from: stb, end: -1, pos: geom.Vec2{X: 5}}
	grid.inflight = append(grid.inflight, expired)
	grid.grid.addTx(expired)
	ownExpired := &transmission{from: sta, end: -1, pos: geom.Vec2{}}
	grid.inflight = append(grid.inflight, ownExpired)
	grid.grid.addTx(ownExpired)
	sta.own = append(sta.own, ownExpired)
	if grid.carrierBusy(sta) {
		t.Error("grid: expired transmissions sensed as busy")
	}
	// A live transmission of a's own is busy at any distance.
	ownLive := &transmission{from: sta, end: 1, pos: geom.Vec2{}}
	sta.own = append(sta.own, ownLive)
	if !grid.carrierBusy(sta) {
		t.Error("grid: own live transmission not sensed")
	}
}

// txAudible's mid-bracket branch evaluates the real curve between the
// squared-distance gates.
func TestTxAudibleMidBracket(t *testing.T) {
	_, med := newTestMedium(t, 33)
	ep := &fakeEndpoint{pos: geom.Vec2{}, listening: true}
	med.Attach(0, ep)
	st := med.stations[0]
	cross := med.cfg.Model.DistanceForRSSI(med.cfg.Model.SensitivityDBm)
	if inf := math.Inf(1); med.senseFar2 == inf {
		t.Fatalf("default model has an unbounded sense bracket")
	}
	// Just inside and just outside the crossing, both within the bracket.
	tx := &transmission{from: st, pos: geom.Vec2{X: cross * 0.9995}}
	if !med.txAudible(geom.Vec2{}, tx) {
		t.Error("mean signal just above sensitivity not audible")
	}
	tx.pos = geom.Vec2{X: cross * 1.0005}
	if med.txAudible(geom.Vec2{}, tx) {
		t.Error("mean signal just below sensitivity audible")
	}
}

// Grid-mode carrier sensing: a neighbor's in-flight frame defers the
// second sender exactly as the scan does.
func TestGridCarrierSenseDefersSecondSend(t *testing.T) {
	s, med := newGridTestMedium(t, 34)
	a := &fakeEndpoint{pos: geom.Vec2{X: 0}, listening: true}
	b := &fakeEndpoint{pos: geom.Vec2{X: 10}, listening: true}
	rx := &fakeEndpoint{pos: geom.Vec2{X: 20}, listening: true}
	med.Attach(0, a)
	med.Attach(1, b)
	med.Attach(2, rx)

	if err := med.Send(0, Frame{Kind: 1, Bytes: 1400}); err != nil {
		t.Fatal(err)
	}
	s.Schedule(0.0005, func() {
		if err := med.Send(1, Frame{Kind: 2, Bytes: 56}); err != nil {
			t.Error(err)
		}
	})
	s.Run()

	if got := len(rx.got); got != 2 {
		t.Fatalf("rx got %d frames, want 2: %+v", got, med.Stats())
	}
	if med.Stats().BackoffEvents == 0 {
		t.Error("expected at least one backoff event")
	}
}

// A later-but-stronger frame corrupts an in-progress weak reception (the
// reverse capture direction of TestCaptureStrongFrameSurvives).
func TestCaptureLateStrongFrameWins(t *testing.T) {
	s := sim.New()
	model := radio.DefaultModel()
	model.ShadowSigmaDB = 0
	model.DeepFadeProb = 0
	model.SensitivityDBm = -75 // hidden terminals
	cfg := DefaultConfig(model)
	med, err := NewMedium(s, cfg, sim.NewRNG(35).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	rangeM := model.MeanRange()
	near := &fakeEndpoint{pos: geom.Vec2{X: 0}, listening: true}
	far := &fakeEndpoint{pos: geom.Vec2{X: 1.05 * rangeM}, listening: true}
	rx := &fakeEndpoint{pos: geom.Vec2{X: 5}, listening: true}
	med.Attach(0, near)
	med.Attach(1, far)
	med.Attach(2, rx)

	// Weak frame first, strong frame second: the strong one captures.
	if err := med.Send(1, Frame{Kind: 2, Bytes: 256}); err != nil {
		t.Fatal(err)
	}
	if err := med.Send(0, Frame{Kind: 1, Bytes: 256}); err != nil {
		t.Fatal(err)
	}
	s.Run()

	if len(rx.got) != 1 || rx.got[0].Kind != 1 {
		t.Fatalf("late capture failed: got %+v", rx.got)
	}
}

// The medium's ceiling table must reach past the plausibility gate (or
// stop at the rung cap), and every rung must bound the exact mean across
// its whole meter, densely sampled up to the next rung, and the last rung
// everything beyond it; a lookup that read rung k+1 would fail at d = k.
// Each rung also stays within a few margins of the mean at its own
// distance, so the bound is as tight as the table allows.
func TestMeanCeilingsBoundMean(t *testing.T) {
	const margin = 1e-9 // the radio table's bound margin
	far := radio.DefaultModel()
	far.SensitivityDBm, far.MinRSSIDBm = -140, -160 // plausFar past the rung cap
	offset := radio.DefaultModel()
	offset.ReferenceDist = 2.5
	for name, model := range map[string]radio.Model{
		"default": radio.DefaultModel(), "swarm": swarmModel(), "capped": far, "offset": offset,
	} {
		med, err := NewMedium(sim.New(), DefaultConfig(model), sim.NewRNG(1).Stream("mac"))
		if err != nil {
			t.Fatal(err)
		}
		mean := med.cfg.Model.MeanRSSI
		last := med.bounds.Rungs() - 1
		if pf := math.Sqrt(med.plausFar2); last < radio.MaxMeanRungs-1 && float64(last) <= pf {
			t.Errorf("%s: table ends at %d m, inside plausFar %v", name, last, pf)
		}
		if name == "capped" && med.bounds.Rungs() != radio.MaxMeanRungs {
			t.Errorf("capped: %d rungs, want %d", med.bounds.Rungs(), radio.MaxMeanRungs)
		}
		for k := 0; k <= last; k++ {
			if c := med.bounds.Ceil(float64(k)); c > mean(float64(k))+4*margin {
				t.Fatalf("%s: rung %d = %v, loose over the mean %v", name, k, c, mean(float64(k)))
			}
			for j := 0; j <= 64; j++ {
				d := float64(k) + float64(j)/64
				if j == 64 {
					d = math.Nextafter(float64(k+1), 0)
				}
				if c := med.bounds.Ceil(d); c < mean(d) {
					t.Fatalf("%s: ceiling %v below MeanRSSI(%v) = %v", name, c, d, mean(d))
				}
			}
		}
		for _, d := range []float64{float64(last) + 0.5, 2 * float64(last), 1e6, math.MaxFloat64} {
			if c := med.bounds.Ceil(d); c < mean(d) {
				t.Fatalf("%s: ceiling %v below MeanRSSI(%v) = %v", name, c, d, mean(d))
			}
		}
	}
}
