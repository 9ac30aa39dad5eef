package mac

import (
	"math"
	"reflect"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/mobility"
	"cocoa/internal/sim"
)

// delivery is one (receiver, frame, rssi) outcome of a leg workload.
type delivery struct {
	Rcv   int
	Frame Frame
	RSSI  float64
}

// legEndpoint is a waypoint-backed station that logs its deliveries and
// counts how often the medium asks it for its motion. With stale set it
// reports every leg as already expired, so the medium has to ask the
// waypoint on every position read.
type legEndpoint struct {
	swarmEndpoint
	id    int
	stale bool
	reads *int
	log   *[]delivery
}

func (e *legEndpoint) Motion() (geom.Vec2, mobility.Leg) {
	*e.reads++
	p, leg := e.w.Motion(e.s.Now())
	if e.stale {
		leg.Until = math.Inf(-1)
	}
	return p, leg
}

func (e *legEndpoint) Deliver(f Frame, rssi float64) {
	*e.log = append(*e.log, delivery{Rcv: e.id, Frame: f, RSSI: rssi})
}

// legTrace is everything observable about one leg workload run.
type legTrace struct {
	Stats     Stats
	Log       []delivery
	reads     int
	gateSkips int
}

// runLegWorkload drives a medium over waypoint-backed stations that move,
// rest, contend for the channel, and go through the two events that bend a
// trajectory or replace a station: a mid-leg HoldUntil re-synced with
// UpdatePosition, and a detach followed by a re-attach. prep, when non-nil,
// adjusts the new medium before any station attaches.
func runLegWorkload(t *testing.T, idx NeighborIndex, stale bool, prep func(*Medium)) legTrace {
	t.Helper()
	const (
		n      = 48
		side   = 160.0
		vmax   = 15.0 // fast enough that legs and rests end mid-run
		tickDt = 0.25
		sendDt = 0.004
		dur    = 10.0
	)
	s := sim.New()
	cfg := DefaultConfig(swarmModel())
	cfg.NeighborIndex = idx
	cfg.IndexSlackM = vmax * tickDt
	med, err := NewMedium(s, cfg, sim.NewRNG(3).Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(med)
	}
	mcfg := mobility.DefaultConfig(vmax)
	mcfg.Area = geom.Square(side)
	mcfg.RestMin, mcfg.RestMax = 0.2, 1.5
	var tr legTrace
	eps := make([]*legEndpoint, n)
	for i := range eps {
		w, err := mobility.NewWaypoint(mcfg, sim.NewRNG(5).StreamN("mob", i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = &legEndpoint{swarmEndpoint: swarmEndpoint{s: s, w: w},
			id: i, stale: stale, reads: &tr.reads, log: &tr.Log}
		med.Attach(i, eps[i])
	}

	s.EachTick(tickDt, tickDt, func(sim.Time) { med.UpdatePositions() })
	frame := 0
	s.EachTick(sendDt, sendDt, func(sim.Time) {
		// Two senders per slot keep carrier sense and collisions busy.
		for _, from := range []int{frame * 7 % n, (frame*7 + n/2) % n} {
			if _, ok := med.stations[from]; ok {
				if err := med.Send(from, Frame{Kind: 1, Bytes: 56, Payload: frame}); err != nil {
					t.Fatalf("send from %d: %v", from, err)
				}
			}
		}
		frame++
	})

	// Every third station is held where it stands for two seconds; the
	// ones on the move had their cached leg bent under them.
	held := 0
	s.At(2.01, func() {
		now := s.Now()
		for i := 0; i < n; i += 3 {
			w := eps[i].w
			w.Position(now)
			if w.Velocity() != (geom.Vec2{}) {
				held++
			}
			w.HoldUntil(now, now+2)
			med.UpdatePosition(i)
		}
	})
	s.At(3.5, func() { med.Detach(1) })
	s.At(5.5, func() { med.Attach(1, eps[1]) })

	s.RunUntil(dur)
	if held == 0 {
		t.Fatal("no station was held mid-leg")
	}
	tr.Stats = med.Stats()
	tr.gateSkips = med.tel.gateSkips
	return tr
}

// TestCachedLegsMatchEndpointReads is the differential check of the MAC's
// leg cache: evaluating each station's cached waypoint leg must produce
// exactly the stats and deliveries of asking the waypoint on every read,
// under both neighbor indexes, including across a HoldUntil re-synced with
// UpdatePosition and a detach/re-attach.
func TestCachedLegsMatchEndpointReads(t *testing.T) {
	for _, idx := range []NeighborIndex{IndexScan, IndexGrid} {
		cached := runLegWorkload(t, idx, false, nil)
		fresh := runLegWorkload(t, idx, true, nil)
		if !reflect.DeepEqual(cached.Stats, fresh.Stats) {
			t.Errorf("index %d: stats diverged\ncached: %+v\nfresh:  %+v", idx, cached.Stats, fresh.Stats)
		}
		if !reflect.DeepEqual(cached.Log, fresh.Log) {
			t.Errorf("index %d: delivery logs diverged (%d vs %d deliveries)", idx, len(cached.Log), len(fresh.Log))
		}
		if cached.Stats.Delivered == 0 || cached.Stats.Collided == 0 || cached.Stats.BackoffEvents == 0 {
			t.Errorf("index %d: degenerate workload: %+v", idx, cached.Stats)
		}
		// The cache has to be doing the work: most reads never reach the
		// endpoint.
		if cached.reads*10 > fresh.reads {
			t.Errorf("index %d: cached run asked endpoints %d times, fresh run %d", idx, cached.reads, fresh.reads)
		}
	}
}

// TestCeilingGateMatchesExactMean is the differential check of the
// mean-RSSI ceiling table: a medium whose every rung is +Inf decides each
// sample on its exact mean, and must produce exactly the default medium's
// stats and deliveries under both neighbor indexes.
func TestCeilingGateMatchesExactMean(t *testing.T) {
	exact := func(m *Medium) {
		loud := m.cfg.Model
		loud.TxPowerDBm = math.Inf(1) // every rung's mean, so every ceiling, is +Inf
		m.bounds.Init(&loud, 1, math.Sqrt(m.plausFar2))
	}
	for _, idx := range []NeighborIndex{IndexScan, IndexGrid} {
		gated := runLegWorkload(t, idx, false, nil)
		ref := runLegWorkload(t, idx, false, exact)
		if !reflect.DeepEqual(gated.Stats, ref.Stats) {
			t.Errorf("index %d: stats diverged\ngated: %+v\nexact: %+v", idx, gated.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(gated.Log, ref.Log) {
			t.Errorf("index %d: delivery logs diverged (%d vs %d deliveries)", idx, len(gated.Log), len(ref.Log))
		}
		// The gate has work to do only if noise was drawn for receivers
		// that then fell below sensitivity.
		if gated.Stats.Delivered == 0 || gated.Stats.BelowSense <= gated.gateSkips {
			t.Errorf("index %d: no sampled receiver fell below sensitivity: %+v", idx, gated.Stats)
		}
	}
}
