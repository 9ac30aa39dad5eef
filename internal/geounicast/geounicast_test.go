package geounicast

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

// bed wires N static agents over a short-range deterministic channel.
type bed struct {
	sim    *sim.Simulator
	agents []*Agent
}

func shortRangeModel() radio.Model {
	m := radio.DefaultModel()
	m.ShadowSigmaDB = 0.01
	m.DeepFadeProb = 0
	m.MultipathSigmaDB = 0
	m.SensitivityDBm = -75 // range ~27 m
	return m
}

func newBed(t *testing.T, seed int64, positions []geom.Vec2) *bed {
	t.Helper()
	s := sim.New()
	root := sim.NewRNG(seed)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	b := &bed{sim: s}
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		a, err := New(s, nic, DefaultConfig(), root.StreamN("uni", i),
			func() geom.Vec2 { return pos })
		if err != nil {
			t.Fatal(err)
		}
		b.agents = append(b.agents, a)
	}
	return b
}

// exchangeHellos floods neighbor tables.
func (b *bed) exchangeHellos(t *testing.T) {
	t.Helper()
	for i, a := range b.agents {
		a := a
		b.sim.Schedule(0.01*float64(i+1), func() {
			if err := a.SendHello(); err != nil {
				t.Error(err)
			}
		})
	}
	b.sim.RunUntil(1)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NeighborTTLS = 0 },
		func(c *Config) { c.DefaultTTL = 0 },
		func(c *Config) { c.PayloadBytes = -1 },
		func(c *Config) { c.ForwardJitterMaxS = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid config", i)
		}
	}
}

func TestHelloBuildsNeighborTables(t *testing.T) {
	b := newBed(t, 1, []geom.Vec2{{X: 0}, {X: 20}, {X: 40}})
	b.exchangeHellos(t)
	// Node 1 hears both ends; nodes 0 and 2 hear only node 1 (range 27 m).
	if got := b.agents[1].NeighborCount(); got != 2 {
		t.Errorf("middle node neighbors = %d, want 2", got)
	}
	if got := b.agents[0].NeighborCount(); got != 1 {
		t.Errorf("end node neighbors = %d, want 1", got)
	}
}

func TestMultiHopDelivery(t *testing.T) {
	b := newBed(t, 2, []geom.Vec2{{X: 0}, {X: 20}, {X: 40}, {X: 60}})
	b.exchangeHellos(t)

	var got []Packet
	b.agents[3].OnDeliver(func(p Packet) { got = append(got, p) })
	b.agents[0].Send(3, geom.Vec2{X: 60}, "report")
	b.sim.RunUntil(3)

	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1 (stats: %+v %+v)",
			len(got), b.agents[0].Stats(), b.agents[1].Stats())
	}
	p := got[0]
	if p.Src != 0 || p.Dst != 3 || p.Payload != "report" {
		t.Errorf("packet = %+v", p)
	}
	if p.Hops != 3 {
		t.Errorf("hops = %d, want 3", p.Hops)
	}
	if b.agents[1].Stats().Forwarded != 1 || b.agents[2].Stats().Forwarded != 1 {
		t.Error("relays did not forward exactly once each")
	}
}

func TestNonNextHopIgnores(t *testing.T) {
	b := newBed(t, 3, []geom.Vec2{{X: 0}, {X: 20}, {X: 15, Y: 10}})
	b.exchangeHellos(t)
	delivered := false
	b.agents[2].OnDeliver(func(Packet) { delivered = true })
	// 0 -> 1 directly; node 2 overhears but must not deliver or forward.
	b.agents[0].Send(1, geom.Vec2{X: 20}, "x")
	b.sim.RunUntil(2)
	if delivered {
		t.Error("bystander delivered a packet not addressed to it")
	}
	if b.agents[2].Stats().Forwarded != 0 {
		t.Error("bystander forwarded")
	}
	if b.agents[1].Stats().Delivered != 1 {
		t.Error("destination did not deliver")
	}
}

func TestNoRouteAtVoid(t *testing.T) {
	// Two disconnected clusters: sender has no neighbor with progress.
	b := newBed(t, 4, []geom.Vec2{{X: 0}, {X: 20}, {X: 500}, {X: 520}})
	b.exchangeHellos(t)
	b.agents[0].Send(3, geom.Vec2{X: 520}, "x")
	b.sim.RunUntil(2)
	// Node 1 is the only neighbor, but it makes no progress toward 520
	// versus... actually it does (20 < 0 distance-wise); the drop happens
	// at node 1, which has no forward neighbor.
	s0, s1 := b.agents[0].Stats(), b.agents[1].Stats()
	if s0.NoRoute+s1.NoRoute == 0 {
		t.Errorf("no NoRoute drop recorded: %+v %+v", s0, s1)
	}
	if b.agents[3].Stats().Delivered != 0 {
		t.Error("delivered across a partition")
	}
}

func TestTTLBoundsForwarding(t *testing.T) {
	positions := make([]geom.Vec2, 10)
	for i := range positions {
		positions[i] = geom.Vec2{X: float64(i) * 20}
	}
	s := sim.New()
	root := sim.NewRNG(5)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DefaultTTL = 3 // destination is 9 hops away
	var agents []*Agent
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		a, err := New(s, nic, cfg, root.StreamN("uni", i), func() geom.Vec2 { return pos })
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for i, a := range agents {
		a := a
		s.Schedule(0.01*float64(i+1), func() { _ = a.SendHello() })
	}
	s.RunUntil(1)
	agents[0].Send(9, geom.Vec2{X: 180}, "x")
	s.RunUntil(5)
	if agents[9].Stats().Delivered != 0 {
		t.Error("delivered despite TTL 3 over 9 hops")
	}
	expired := 0
	for _, a := range agents {
		expired += a.Stats().TTLExpired
	}
	if expired != 1 {
		t.Errorf("TTLExpired = %d, want exactly 1", expired)
	}
}

func TestStaleNeighborsNotUsed(t *testing.T) {
	s := sim.New()
	root := sim.NewRNG(6)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NeighborTTLS = 10
	positions := []geom.Vec2{{X: 0}, {X: 20}}
	var agents []*Agent
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		a, err := New(s, nic, cfg, root.StreamN("uni", i), func() geom.Vec2 { return pos })
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	_ = agents[1].SendHello()
	s.RunUntil(1)
	if agents[0].NeighborCount() != 1 {
		t.Fatal("hello not received")
	}
	// 20 s later the entry is stale: no route.
	s.RunUntil(21)
	if agents[0].NeighborCount() != 0 {
		t.Error("stale neighbor still counted")
	}
	agents[0].Send(1, geom.Vec2{X: 20}, "x")
	s.RunUntil(25)
	if agents[0].Stats().NoRoute != 1 {
		t.Errorf("stale neighbor used for forwarding: %+v", agents[0].Stats())
	}
}

func TestDirectNeighborShortcut(t *testing.T) {
	b := newBed(t, 7, []geom.Vec2{{X: 0}, {X: 20}})
	b.exchangeHellos(t)
	delivered := 0
	b.agents[1].OnDeliver(func(Packet) { delivered++ })
	// Even if the destination's advertised coordinates are garbage, a
	// direct neighbor match must win.
	b.agents[0].Send(1, geom.Vec2{X: 9999}, "x")
	b.sim.RunUntil(2)
	if delivered != 1 {
		t.Error("direct-neighbor shortcut failed")
	}
}

// ARQ: when the next hop sleeps through the first transmission, the
// retransmission after the ACK timeout gets the packet through.
func TestARQRecoversLostHop(t *testing.T) {
	s := sim.New()
	root := sim.NewRNG(8)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Vec2{{X: 0}, {X: 20}}
	var agents []*Agent
	var nics []*network.NIC
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		a, err := New(s, nic, DefaultConfig(), root.StreamN("uni", i), func() geom.Vec2 { return pos })
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		nics = append(nics, nic)
	}
	// Build neighbor tables while both awake.
	for _, a := range agents {
		a := a
		s.Schedule(0.01, func() { _ = a.SendHello() })
	}
	s.RunUntil(1)

	// The receiver sleeps through the first copy and wakes before the
	// retransmission timeout expires.
	delivered := 0
	agents[1].OnDeliver(func(Packet) { delivered++ })
	s.Schedule(1.5, func() { nics[1].Sleep() })
	s.Schedule(2.0, func() { agents[0].Send(1, geom.Vec2{X: 20}, "x") })
	s.Schedule(2.03, func() { nics[1].Wake() })
	s.RunUntil(4)

	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 via retransmission (stats %+v)",
			delivered, agents[0].Stats())
	}
	if agents[0].Stats().Retransmits == 0 {
		t.Error("no retransmission recorded")
	}
}

// ARQ gives up after MaxRetries when the next hop never comes back.
func TestARQGivesUp(t *testing.T) {
	s := sim.New()
	root := sim.NewRNG(9)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Vec2{{X: 0}, {X: 20}}
	var agents []*Agent
	var nics []*network.NIC
	for i, pos := range positions {
		pos := pos
		nic := network.NewNIC(s, med, energy.DefaultParams(), i, parked(pos))
		a, err := New(s, nic, DefaultConfig(), root.StreamN("uni", i), func() geom.Vec2 { return pos })
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		nics = append(nics, nic)
	}
	for _, a := range agents {
		a := a
		s.Schedule(0.01, func() { _ = a.SendHello() })
	}
	s.RunUntil(1)
	nics[1].Sleep() // gone for good
	agents[0].Send(1, geom.Vec2{X: 20}, "x")
	s.RunUntil(5)

	st := agents[0].Stats()
	if st.DropsNoAck != 1 {
		t.Errorf("DropsNoAck = %d, want 1 (stats %+v)", st.DropsNoAck, st)
	}
	if st.Retransmits != DefaultConfig().MaxRetries {
		t.Errorf("Retransmits = %d, want %d", st.Retransmits, DefaultConfig().MaxRetries)
	}
}

// Duplicate suppression: a lost ACK causes a retransmission that the
// receiver must re-ACK but not re-deliver.
func TestARQDuplicateSuppression(t *testing.T) {
	b := newBed(t, 10, []geom.Vec2{{X: 0}, {X: 20}, {X: 40}})
	b.exchangeHellos(t)
	count := 0
	b.agents[2].OnDeliver(func(Packet) { count++ })
	// Two distinct packets: each delivered exactly once even if ARQ
	// machinery retransmits internally.
	b.agents[0].Send(2, geom.Vec2{X: 40}, "a")
	b.sim.Schedule(0.5, func() { b.agents[0].Send(2, geom.Vec2{X: 40}, "b") })
	b.sim.RunUntil(3)
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
}

func TestARQDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MaxRetries=0 must be a valid (fire-and-forget) config: %v", err)
	}
	cfg.MaxRetries = 2
	cfg.AckTimeoutS = 0
	if err := cfg.Validate(); err == nil {
		t.Error("retries without a timeout accepted")
	}
}

// parked is a motion source for a node that never moves: its leg holds
// forever, so the medium reads it once.
func parked(p geom.Vec2) func() (geom.Vec2, mobility.Leg) {
	return func() (geom.Vec2, mobility.Leg) {
		return p, mobility.Leg{Origin: p, Until: math.Inf(1)}
	}
}
