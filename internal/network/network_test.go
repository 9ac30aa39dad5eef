package network

import (
	"math"
	"reflect"
	"testing"

	"cocoa/internal/energy"
	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/mobility"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

type testBed struct {
	sim *sim.Simulator
	med *mac.Medium
}

func newBed(t *testing.T, seed int64) *testBed {
	t.Helper()
	s := sim.New()
	med, err := mac.NewMedium(s, mac.DefaultConfig(radio.DefaultModel()), sim.NewRNG(seed).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	return &testBed{sim: s, med: med}
}

func (b *testBed) nic(id int, pos geom.Vec2) *NIC {
	return NewNIC(b.sim, b.med, energy.DefaultParams(), id, parked(pos))
}

func TestBeaconBytesMatchesPaper(t *testing.T) {
	// The paper: IP and UDP headers (20 bytes each) plus coordinates.
	if BeaconBytes != 56 {
		t.Errorf("BeaconBytes = %d, want 56", BeaconBytes)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeOff: "off", ModeSleep: "sleep", ModeAwake: "awake", Mode(9): "Mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestSendDeliverRoundTrip(t *testing.T) {
	b := newBed(t, 1)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})

	var got []any
	var rssis []float64
	c.Handle(KindBeacon, func(f mac.Frame, rssi float64) {
		got = append(got, f.Payload)
		rssis = append(rssis, rssi)
	})

	if err := a.Send(KindBeacon, BeaconBytes, "hello"); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()

	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v", got)
	}
	if rssis[0] > -30 || rssis[0] < -98 {
		t.Errorf("implausible RSSI %v", rssis[0])
	}
	if a.sent != 1 || c.received != 1 {
		t.Errorf("counters: sent=%d received=%d", a.sent, c.received)
	}
}

func TestUnhandledKindDropped(t *testing.T) {
	b := newBed(t, 2)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.Handle(KindSync, func(mac.Frame, float64) { t.Error("wrong handler called") })
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()
	if c.received != 1 {
		t.Errorf("Received = %d, want 1 (counted even if unhandled)", c.received)
	}
}

// Frames of an out-of-range kind reach no handler and are still counted as
// received, like an unhandled kind.
func TestOutOfRangeKindDropped(t *testing.T) {
	b := newBed(t, 3)
	c := b.nic(1, geom.Vec2{})
	for kind := KindBeacon; kind <= KindAck; kind++ {
		c.Handle(kind, func(f mac.Frame, _ float64) { t.Errorf("kind %d handler got a kind %d frame", kind, f.Kind) })
	}
	for _, kind := range []int{-1, 99} {
		c.Deliver(mac.Frame{Kind: kind}, -50)
	}
	if c.received != 2 {
		t.Errorf("Received = %d, want 2", c.received)
	}
}

func TestSendWhileAsleepFails(t *testing.T) {
	b := newBed(t, 3)
	a := b.nic(0, geom.Vec2{})
	a.Sleep()
	if err := a.Send(KindBeacon, BeaconBytes, nil); err == nil {
		t.Fatal("send while asleep succeeded")
	}
	if a.sendErrs != 1 {
		t.Errorf("SendErrors = %d, want 1", a.sendErrs)
	}
	a.PowerOff()
	if err := a.Send(KindBeacon, BeaconBytes, nil); err == nil {
		t.Fatal("send while off succeeded")
	}
}

func TestSleepingNICReceivesNothing(t *testing.T) {
	b := newBed(t, 4)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.Sleep()
	delivered := false
	c.Handle(KindBeacon, func(mac.Frame, float64) { delivered = true })
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()
	if delivered {
		t.Fatal("sleeping NIC received a frame")
	}
}

func TestWakeRestoresReception(t *testing.T) {
	b := newBed(t, 5)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.Sleep()
	count := 0
	c.Handle(KindBeacon, func(mac.Frame, float64) { count++ })

	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(1, func() { c.Wake() })
	b.sim.Schedule(2, func() {
		if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
			t.Error(err)
		}
	})
	b.sim.Run()
	if count != 1 {
		t.Fatalf("received %d frames, want exactly the post-wake one", count)
	}
}

func TestEnergyAccountingAcrossSchedule(t *testing.T) {
	b := newBed(t, 6)
	p := energy.DefaultParams()
	a := b.nic(0, geom.Vec2{})

	// 10 s idle, sleep for 80 s, wake, idle 10 s.
	b.sim.Schedule(10, a.Sleep)
	b.sim.Schedule(90, a.Wake)
	b.sim.Schedule(100, func() {})
	b.sim.Run()
	a.Meter().Flush(b.sim.Now())

	want := 20*p.IdleW + 80*p.SleepW + 2*p.TransitionJ
	if got := a.Meter().TotalJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalJ = %v, want %v", got, want)
	}
	if got := a.Meter().Duration(energy.Sleep); got != 80 {
		t.Errorf("sleep duration = %v, want 80", got)
	}
}

func TestTxRxEnergyStates(t *testing.T) {
	b := newBed(t, 7)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()
	a.Meter().Flush(b.sim.Now())
	c.Meter().Flush(b.sim.Now())

	if a.Meter().Duration(energy.Tx) <= 0 {
		t.Error("sender accrued no Tx time")
	}
	if c.Meter().Duration(energy.Rx) <= 0 {
		t.Error("receiver accrued no Rx time")
	}
	// Tx time equals preamble + airtime of 56+34 bytes at 2 Mbps.
	cfg := b.med.Config()
	wantTx := cfg.PreambleS + cfg.Model.Airtime(BeaconBytes+cfg.OverheadBytes)
	if got := a.Meter().Duration(energy.Tx); math.Abs(got-wantTx) > 1e-12 {
		t.Errorf("Tx duration = %v, want %v", got, wantTx)
	}
}

func TestListeningSemantics(t *testing.T) {
	b := newBed(t, 8)
	a := b.nic(0, geom.Vec2{})
	if !a.Listening() {
		t.Error("awake NIC not listening")
	}
	a.BeginTx()
	if a.Listening() {
		t.Error("transmitting NIC still listening")
	}
	a.EndTx()
	a.Sleep()
	if a.Listening() {
		t.Error("sleeping NIC listening")
	}
	a.Wake()
	a.BeginRx()
	if !a.Listening() {
		t.Error("receiving NIC must keep listening (collision modeling)")
	}
	a.EndRx()
}

// scriptedFilter drops every frame whose index is in drop and adds rssiAdd
// to the rest — a deterministic stand-in for the faults layer.
type scriptedFilter struct {
	n       int
	drop    map[int]bool
	rssiAdd float64
}

func (f *scriptedFilter) Incoming(kind int, rssi float64) (float64, bool) {
	i := f.n
	f.n++
	if f.drop[i] {
		return rssi, true
	}
	return rssi + f.rssiAdd, false
}

func TestFaultFilterInterceptsDelivery(t *testing.T) {
	b := newBed(t, 10)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.SetFaultFilter(&scriptedFilter{drop: map[int]bool{0: true, 2: true}, rssiAdd: 7})

	var rssis []float64
	c.Handle(KindBeacon, func(_ mac.Frame, rssi float64) { rssis = append(rssis, rssi) })

	// Two sends, spaced so they do not collide; the filter eats the first.
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Schedule(1, func() {
		if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
			t.Error(err)
		}
	})
	b.sim.Run()

	if len(rssis) != 1 {
		t.Fatalf("delivered %d frames, want 1 (first dropped)", len(rssis))
	}
	if c.FaultDrops() != 1 {
		t.Errorf("FaultDrops = %d, want 1", c.FaultDrops())
	}
	if c.received != 1 {
		t.Errorf("Received = %d, want 1 (drops are not receptions)", c.received)
	}
	if rssis[0] > -30+7 || rssis[0] < -98+7 {
		t.Errorf("perturbed RSSI %v outside shifted plausible band", rssis[0])
	}
	// A frame of an unknown kind is dropped into the "other" series.
	c.Deliver(mac.Frame{Kind: 99}, -50)
	reg := telemetry.NewRegistry()
	for _, n := range []*NIC{a, c} {
		counts := n.Counts()
		counts.Publish(reg)
	}
	for name, want := range map[string]int64{
		"network.sent": 2, "network.delivered": 1, "network.send_errors": 0,
		"network.fault_drops": 2, "network.fault_drops.beacon": 1, "network.fault_drops.other": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// Summed NIC counts publish what the NICs publish one by one, and Init
// rewinds a NIC to a new one: no counts, handlers or fault filter.
func TestCountsSumAndInitRewinds(t *testing.T) {
	b := newBed(t, 12)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.SetFaultFilter(&scriptedFilter{drop: map[int]bool{0: true}})
	handled := 0
	c.Handle(KindBeacon, func(mac.Frame, float64) { handled++ })
	for i := 0; i < 2; i++ {
		b.sim.Schedule(float64(i), func() {
			if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
				t.Error(err)
			}
		})
	}
	b.sim.Run()
	if handled != 1 || c.FaultDrops() != 1 {
		t.Fatalf("handled %d frames with %d fault drops, want 1 and 1", handled, c.FaultDrops())
	}

	snapshot := func(cs ...Counts) telemetry.Snapshot {
		reg := telemetry.NewRegistry()
		for i := range cs {
			cs[i].Publish(reg)
		}
		return reg.Snapshot()
	}
	var sum Counts
	sum.Add(a.Counts())
	sum.Add(c.Counts())
	if got, want := snapshot(sum), snapshot(a.Counts(), c.Counts()); !reflect.DeepEqual(got, want) {
		t.Errorf("summed counts publish %+v, one by one %+v", got, want)
	}

	c.Init(b.sim, b.med, energy.DefaultParams(), 1, parked(geom.Vec2{X: 15}))
	if got := c.Counts(); got != (Counts{}) {
		t.Errorf("re-initialised NIC counts %+v", got)
	}
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()
	if handled != 1 || c.received != 1 || c.FaultDrops() != 0 {
		t.Errorf("after Init: handled %d, received %d, fault drops %d; want 1, 1, 0", handled, c.received, c.FaultDrops())
	}
	if c.Mode() != ModeAwake || c.Meter().Transitions() != 0 {
		t.Errorf("after Init: mode %v with %d meter transitions", c.Mode(), c.Meter().Transitions())
	}
}

func TestNilFaultFilterIsTransparent(t *testing.T) {
	b := newBed(t, 11)
	a := b.nic(0, geom.Vec2{})
	c := b.nic(1, geom.Vec2{X: 15})
	c.SetFaultFilter(nil)
	got := 0
	c.Handle(KindBeacon, func(mac.Frame, float64) { got++ })
	if err := a.Send(KindBeacon, BeaconBytes, nil); err != nil {
		t.Fatal(err)
	}
	b.sim.Run()
	if got != 1 || c.FaultDrops() != 0 {
		t.Errorf("nil filter: delivered=%d drops=%d", got, c.FaultDrops())
	}
	reg := telemetry.NewRegistry()
	counts := c.Counts()
	counts.Publish(reg)
	if snap := reg.Snapshot(); len(snap.Counters) != 4 {
		t.Errorf("filterless NIC published %v, want only the four unbroken-down series", snap.Counters)
	}
}

func TestModeTransitionsIdempotent(t *testing.T) {
	b := newBed(t, 9)
	a := b.nic(0, geom.Vec2{})
	a.Sleep()
	a.Sleep() // no double transition cost
	b.sim.Schedule(10, func() {})
	b.sim.Run()
	a.Meter().Flush(10)
	if got := a.Meter().Transitions(); got != 1 {
		t.Errorf("transitions = %d, want 1", got)
	}
	if a.Mode() != ModeSleep {
		t.Errorf("mode = %v", a.Mode())
	}
}

// parked is a motion source for a node that never moves: its leg holds
// forever, so the medium reads it once.
func parked(p geom.Vec2) func() (geom.Vec2, mobility.Leg) {
	return func() (geom.Vec2, mobility.Leg) {
		return p, mobility.Leg{Origin: p, Until: math.Inf(1)}
	}
}
