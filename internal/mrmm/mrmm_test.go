package mrmm

import (
	"math"
	"testing"

	"cocoa/internal/energy"
	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/mobility"
	"cocoa/internal/network"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// meshBed wires N static nodes with NICs and MRMM instances.
type meshBed struct {
	sim   *sim.Simulator
	med   *mac.Medium
	nics  []*network.NIC
	prots []*Protocol
}

func newMeshBed(t *testing.T, seed int64, positions []geom.Vec2, model radio.Model, pruning bool) *meshBed {
	t.Helper()
	s := sim.New()
	root := sim.NewRNG(seed)
	med, err := mac.NewMedium(s, mac.DefaultConfig(model), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	frames := NewFrames(med)
	b := &meshBed{sim: s, med: med}
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		cfg := DefaultConfig(model.MeanRange())
		cfg.UsePruning = pruning
		p, err := New(s, nic, cfg, root.StreamN("mrmm", i), frames, func() MobilityInfo {
			return MobilityInfo{Pos: pos}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetMember(true)
		b.nics = append(b.nics, nic)
		b.prots = append(b.prots, p)
	}
	return b
}

// line topology spaced so only adjacent nodes hear each other: forces
// multi-hop forwarding.
func lineTopology(n int, spacing float64) []geom.Vec2 {
	out := make([]geom.Vec2, n)
	for i := range out {
		out[i] = geom.Vec2{X: float64(i) * spacing}
	}
	return out
}

// shortRangeModel shrinks the radio range and removes channel randomness so
// topology is exact.
func shortRangeModel() radio.Model {
	m := radio.DefaultModel()
	m.ShadowSigmaDB = 0.01
	m.DeepFadeProb = 0
	m.MultipathSigmaDB = 0
	m.SensitivityDBm = -75 // range ~ 27 m
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(160).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MaxHops = 0 },
		func(c *Config) { c.FGTimeoutS = 0 },
		func(c *Config) { c.ReplyDelayMinS = -1 },
		func(c *Config) { c.ReplyDelayMaxS = 0; c.ReplyDelayMinS = 1 },
		func(c *Config) { c.ForwardJitterMaxS = -1 },
		func(c *Config) { c.LinkRangeM = 0 },
		func(c *Config) { c.DataBytes = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(160)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid config", i)
		}
	}
}

func TestSingleHopDelivery(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 1, []geom.Vec2{{X: 0}, {X: 20}}, model, true)

	var got []Data
	b.prots[1].OnData(func(d Data, _ float64) { got = append(got, d) })

	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(0.5, func() {
		if err := b.prots[0].SendData("sync-1"); err != nil {
			t.Error(err)
		}
	})
	b.sim.RunUntil(2)

	if len(got) != 1 || got[0].Payload != "sync-1" {
		t.Fatalf("member got %v", got)
	}
}

// Frames travel as pointers into the shared Frames storage, and tasks come
// from the protocol's pool: once warm, a mesh refresh and a data delivery
// over a 3-node line (a query flood with a rebroadcast, replies that
// recruit the relay, a forwarded data packet) allocate nothing.
func TestWarmRoundTripAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	b := newMeshBed(t, 2, lineTopology(3, 20), shortRangeModel(), true)
	delivered := 0
	b.prots[2].OnData(func(Data, float64) { delivered++ })
	var payload any = "sync"
	roundTrip := func() {
		if err := b.prots[0].SendQuery(); err != nil {
			t.Fatal(err)
		}
		b.sim.RunUntil(b.sim.Now() + 0.5)
		if err := b.prots[0].SendData(payload); err != nil {
			t.Fatal(err)
		}
		b.sim.RunUntil(b.sim.Now() + 0.5)
	}
	roundTrip() // warm the maps, the task pool, the frames and the calendar
	relay := b.prots[1].Stats()
	if delivered != 1 || relay.RepliesSent == 0 || relay.DataSent == 0 {
		t.Fatalf("warm-up delivered %d packets, relay replied %d and forwarded %d: want a relayed round trip",
			delivered, relay.RepliesSent, relay.DataSent)
	}
	const runs = 20
	if n := testing.AllocsPerRun(runs, roundTrip); n != 0 {
		t.Errorf("warm query, reply and data round trip allocates %.1f objects, want 0", n)
	}
	if delivered != runs+2 { // AllocsPerRun makes one extra warm-up call
		t.Errorf("member got %d packets over %d round trips, want one each", delivered, runs+2)
	}
}

// Multi-hop: a 4-node line with ~27 m range and 20 m spacing. Data from
// node 0 must reach node 3 via forwarding-group members 1 and 2.
func TestMultiHopDelivery(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 2, lineTopology(4, 20), model, true)

	delivered := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		b.prots[i].OnData(func(Data, float64) { delivered[i]++ })
	}

	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(0.5, func() {
		if err := b.prots[0].SendData("sync"); err != nil {
			t.Error(err)
		}
	})
	b.sim.RunUntil(2)

	for i := 1; i < 4; i++ {
		if delivered[i] != 1 {
			t.Errorf("node %d delivered %d, want 1", i, delivered[i])
		}
	}
	// Middle nodes must have joined the forwarding group.
	if !b.prots[1].InForwardingGroup() || !b.prots[2].InForwardingGroup() {
		t.Error("relay nodes not in forwarding group")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 3, lineTopology(3, 20), model, true)

	count := 0
	b.prots[2].OnData(func(Data, float64) { count++ })

	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	// Send the same logical payload twice: two data packets, each must be
	// delivered exactly once despite mesh redundancy.
	b.sim.Schedule(0.5, func() { _ = b.prots[0].SendData("a") })
	b.sim.Schedule(0.7, func() { _ = b.prots[0].SendData("b") })
	b.sim.RunUntil(2)

	if count != 2 {
		t.Fatalf("delivered %d, want exactly 2", count)
	}
}

func TestNonMemberDoesNotDeliver(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 4, []geom.Vec2{{X: 0}, {X: 20}}, model, true)
	b.prots[1].SetMember(false)
	called := false
	b.prots[1].OnData(func(Data, float64) { called = true })

	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(0.5, func() { _ = b.prots[0].SendData("x") })
	b.sim.RunUntil(2)
	if called {
		t.Error("non-member delivered data")
	}
	if b.prots[1].Stats().DataDelivered != 0 {
		t.Error("non-member counted a delivery")
	}
}

func TestMaxHopsBoundsFlood(t *testing.T) {
	model := shortRangeModel()
	positions := lineTopology(6, 20)
	s := sim.New()
	root := sim.NewRNG(5)
	med, err := mac.NewMedium(s, mac.DefaultConfig(model), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	frames := NewFrames(med)
	var prots []*Protocol
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		cfg := DefaultConfig(model.MeanRange())
		cfg.MaxHops = 2 // queries die after two hops
		p, err := New(s, nic, cfg, root.StreamN("mrmm", i), frames, func() MobilityInfo {
			return MobilityInfo{Pos: pos}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetMember(true)
		prots = append(prots, p)
	}
	if err := prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)
	// Node 5 (5 hops away) must never have seen the query, so it has no
	// upstream and never replied.
	if prots[5].Stats().RepliesSent != 0 {
		t.Error("query escaped the MaxHops bound")
	}
}

func TestFGTimeoutExpires(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 6, lineTopology(3, 20), model, true)
	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	b.sim.RunUntil(1)
	if !b.prots[1].InForwardingGroup() {
		t.Fatal("relay not in FG after query round")
	}
	b.sim.RunUntil(1 + float64(DefaultConfig(100).FGTimeoutS) + 1)
	if b.prots[1].InForwardingGroup() {
		t.Error("FG membership did not expire")
	}
}

// The MRMM pruning policy must prefer the candidate with the longest
// predicted link lifetime; ODMRP must keep the first arrival.
func TestChooseUpstreamPolicies(t *testing.T) {
	cands := []candidate{
		{prevHop: 1, hops: 1, lifetime: 5, order: 0},
		{prevHop: 2, hops: 2, lifetime: 500, order: 1},
		{prevHop: 3, hops: 1, lifetime: 500, order: 2},
	}
	pruned := &Protocol{cfg: Config{UsePruning: true}}
	if got := pruned.chooseUpstream(cands); got.prevHop != 3 {
		t.Errorf("pruning chose %d, want 3 (fewest hops among stable, longest lifetime)", got.prevHop)
	}
	odmrp := &Protocol{cfg: Config{UsePruning: false}}
	if got := odmrp.chooseUpstream(cands); got.prevHop != 1 {
		t.Errorf("ODMRP chose %d, want 1 (first arrival)", got.prevHop)
	}

	// With a stability floor, the short-lived 1-hop candidate is pruned
	// even though it has the fewest hops among all candidates.
	floored := &Protocol{cfg: Config{UsePruning: true, MinLifetimeS: 120}}
	if got := floored.chooseUpstream(cands); got.prevHop != 3 {
		t.Errorf("floored pruning chose %d, want 3", got.prevHop)
	}
	// The floor excludes candidate 1; among stable ones, fewer hops wins
	// even against a longer lifetime.
	cands2 := []candidate{
		{prevHop: 1, hops: 1, lifetime: 5, order: 0},
		{prevHop: 2, hops: 2, lifetime: 900, order: 1},
		{prevHop: 3, hops: 3, lifetime: 5000, order: 2},
	}
	if got := floored.chooseUpstream(cands2); got.prevHop != 2 {
		t.Errorf("floored pruning chose %d, want 2 (fewest hops among stable)", got.prevHop)
	}
	// Nothing stable: fall back to the longest-lived candidate.
	cands3 := []candidate{
		{prevHop: 1, hops: 1, lifetime: 5, order: 0},
		{prevHop: 2, hops: 2, lifetime: 80, order: 1},
	}
	if got := floored.chooseUpstream(cands3); got.prevHop != 2 {
		t.Errorf("fallback chose %d, want 2 (longest lifetime)", got.prevHop)
	}
}

func TestLinkLifetimePrediction(t *testing.T) {
	self := MobilityInfo{Pos: geom.Vec2{}, Vel: geom.Vec2{}}
	p := &Protocol{cfg: Config{LinkRangeM: 100}, mobility: func() MobilityInfo { return self }}

	// Static neighbor in range: infinite lifetime.
	if got := p.linkLifetime(MobilityInfo{Pos: geom.Vec2{X: 50}}); !math.IsInf(got, 1) {
		t.Errorf("static lifetime = %v, want +Inf", got)
	}
	// Neighbor out of range: zero.
	if got := p.linkLifetime(MobilityInfo{Pos: geom.Vec2{X: 150}}); got != 0 {
		t.Errorf("out-of-range lifetime = %v, want 0", got)
	}
	// Neighbor at 50 m moving directly away at 10 m/s: (100-50)/10 = 5 s.
	got := p.linkLifetime(MobilityInfo{Pos: geom.Vec2{X: 50}, Vel: geom.Vec2{X: 10}})
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("receding lifetime = %v, want 5", got)
	}
	// Neighbor moving toward us crosses and exits the far side:
	// position 50, velocity -10: solves (50-10t)^2=100^2 -> t=15.
	got = p.linkLifetime(MobilityInfo{Pos: geom.Vec2{X: 50}, Vel: geom.Vec2{X: -10}})
	if math.Abs(got-15) > 1e-9 {
		t.Errorf("approaching lifetime = %v, want 15", got)
	}
}

// Pruning picks stable relays: with a resting relay and a fast-moving
// relay both available, the member's chosen upstream must be the rester.
func TestPruningPrefersStableRelay(t *testing.T) {
	model := shortRangeModel()
	s := sim.New()
	root := sim.NewRNG(7)
	med, err := mac.NewMedium(s, mac.DefaultConfig(model), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	frames := NewFrames(med)
	// Diamond: source 0 at x=0; relays 1 (moving fast) and 2 (static)
	// both at x=20 (different y, both hear 0 and 3); member 3 at x=40.
	type nodeDef struct {
		pos geom.Vec2
		vel geom.Vec2
	}
	defs := []nodeDef{
		{pos: geom.Vec2{X: 0}},
		{pos: geom.Vec2{X: 20, Y: 8}, vel: geom.Vec2{X: 5, Y: 5}},
		{pos: geom.Vec2{X: 20, Y: -8}},
		{pos: geom.Vec2{X: 40}},
	}
	var prots []*Protocol
	for i, def := range defs {
		def := def
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(def.pos))
		cfg := DefaultConfig(model.MeanRange())
		p, err := New(s, nic, cfg, root.StreamN("mrmm", i), frames, func() MobilityInfo {
			return MobilityInfo{Pos: def.pos, Vel: def.vel}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetMember(true)
		prots = append(prots, p)
	}
	if err := prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)

	if up := prots[3].upstream[0]; up != 2 {
		t.Errorf("member upstream = %d, want 2 (the static relay)", up)
	}
	if !prots[2].InForwardingGroup() {
		t.Error("static relay not recruited")
	}
}

func TestStaleQueryIgnored(t *testing.T) {
	model := shortRangeModel()
	b := newMeshBed(t, 8, []geom.Vec2{{X: 0}, {X: 20}}, model, true)
	// Two rounds: the second query supersedes the first.
	if err := b.prots[0].SendQuery(); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(0.5, func() { _ = b.prots[0].SendQuery() })
	b.sim.RunUntil(2)
	// The member replied twice (once per round).
	if got := b.prots[1].Stats().RepliesSent; got != 2 {
		t.Errorf("RepliesSent = %d, want 2", got)
	}
}

// The headline MRMM property: with pruning, the mesh needs no more data
// transmissions than plain ODMRP on the same topology (usually fewer).
func TestPruningForwardingEfficiency(t *testing.T) {
	run := func(pruning bool) int {
		// A dense random-ish grid where many relays are redundant.
		var positions []geom.Vec2
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				positions = append(positions, geom.Vec2{X: float64(i) * 12, Y: float64(j) * 12})
			}
		}
		b := newMeshBed(t, 9, positions, shortRangeModel(), pruning)
		if err := b.prots[0].SendQuery(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			d := 1.0 + float64(k)*0.2
			b.sim.Schedule(d, func() { _ = b.prots[0].SendData("s") })
		}
		b.sim.RunUntil(4)
		total := 0
		for _, p := range b.prots {
			total += p.Stats().DataSent
		}
		return total
	}
	withPruning, without := run(true), run(false)
	if withPruning > without {
		t.Errorf("pruned mesh sent %d data frames, plain ODMRP %d; pruning must not inflate traffic",
			withPruning, without)
	}
}

// parked is a motion source for a node that never moves: its leg holds
// forever, so the medium reads it once.
func parked(p geom.Vec2) func() (geom.Vec2, mobility.Leg) {
	return func() (geom.Vec2, mobility.Leg) {
		return p, mobility.Leg{Origin: p, Until: math.Inf(1)}
	}
}
