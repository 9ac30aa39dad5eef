package mac

import (
	"math"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/mobility"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// BenchmarkBroadcast measures one full broadcast round over a 50-station
// medium, including per-receiver RSSI sampling and delivery scheduling.
func BenchmarkBroadcast(b *testing.B) {
	s := sim.New()
	med, err := NewMedium(s, DefaultConfig(radio.DefaultModel()), sim.NewRNG(1).Stream("bench"))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2).Stream("pos")
	for i := 0; i < 50; i++ {
		pos := geom.Vec2{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)}
		med.Attach(i, &benchEndpoint{pos: pos})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := med.Send(i%50, Frame{Bytes: 56}); err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
}

type benchEndpoint struct{ pos geom.Vec2 }

func (e *benchEndpoint) Motion() (geom.Vec2, mobility.Leg) { return e.pos, parkedLeg(e.pos) }
func (e *benchEndpoint) Listening() bool                   { return true }
func (e *benchEndpoint) BeginTx()                          {}
func (e *benchEndpoint) EndTx()                            {}
func (e *benchEndpoint) BeginRx()                          {}
func (e *benchEndpoint) EndRx()                            {}
func (e *benchEndpoint) Deliver(Frame, float64)            {}

// swarmEndpoint backs a station with a live random-waypoint mobility
// process, the same motion source network.NIC gives the medium in a real
// run (network itself would be an import cycle from here). The medium
// evaluates each station's cached waypoint leg itself and asks the
// waypoint again only when the leg ends, exactly as in the full simulator,
// so the benchmark charges each receiver visit what a real run pays.
type swarmEndpoint struct {
	s *sim.Simulator
	w *mobility.Waypoint
}

func (e *swarmEndpoint) Motion() (geom.Vec2, mobility.Leg) { return e.w.Motion(e.s.Now()) }
func (e *swarmEndpoint) Listening() bool                   { return true }
func (e *swarmEndpoint) BeginTx()                          {}
func (e *swarmEndpoint) EndTx()                            {}
func (e *swarmEndpoint) BeginRx()                          {}
func (e *swarmEndpoint) EndRx()                            {}
func (e *swarmEndpoint) Deliver(Frame, float64)            {}

// benchmarkSwarm measures one full beacon round — a one-second mobility
// epoch, an incremental index refresh, then one 56-byte beacon from every
// station, chained 1 ms apart — over an n-station field at the paper's
// constant deployment density (one robot per 800 m2, the 50-robots-in-
// 200x200 baseline) with every robot moving under the paper's waypoint
// model at vmax 2 m/s. Beacon power is turned down to swarm level
// (-20 dBm): a thousand-robot network keeps the channel usable through
// spatial reuse, so each beacon only concerns a station's local
// neighborhood. The grid/scan pair is the spatial index's headline:
// identical traffic and identical deliveries, with per-beacon cost bounded
// by that neighborhood instead of the swarm size (DESIGN.md §12).
func benchmarkSwarm(b *testing.B, n int, index NeighborIndex) {
	s := sim.New()
	model := radio.DefaultModel()
	model.TxPowerDBm = -20
	cfg := DefaultConfig(model)
	cfg.NeighborIndex = index
	// One epoch between UpdatePositions calls is 1 s of beaconing; at
	// vmax 2 m/s no robot outruns a 3 m slack.
	cfg.IndexSlackM = 3
	med, err := NewMedium(s, cfg, sim.NewRNG(7).Stream("mac"))
	if err != nil {
		b.Fatal(err)
	}
	side := 200 * math.Sqrt(float64(n)/50)
	mcfg := mobility.DefaultConfig(2.0)
	mcfg.Area = geom.Square(side)
	rng := sim.NewRNG(11)
	for i := 0; i < n; i++ {
		w, err := mobility.NewWaypoint(mcfg, rng.StreamN("mob", i))
		if err != nil {
			b.Fatal(err)
		}
		med.Attach(i, &swarmEndpoint{s: s, w: w})
	}
	var sendErr error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.UpdatePositions()
		// Beacons chain (each schedules the next 1 ms out) so the event
		// queue holds in-flight frames, not a round's whole send plan.
		var kick func(id int)
		kick = func(id int) {
			if err := med.Send(id, Frame{Kind: 1, Bytes: 56}); err != nil {
				sendErr = err
			}
			if id+1 < n {
				s.Schedule(1e-3, func() { kick(id + 1) })
			}
		}
		s.Schedule(0, func() { kick(0) })
		s.Run()
	}
	b.StopTimer()
	if sendErr != nil {
		b.Fatal(sendErr)
	}
	b.ReportMetric(float64(med.Stats().Delivered)/float64(b.N), "delivered-per-round")
}

func BenchmarkSwarm100(b *testing.B) {
	b.Run("grid", func(b *testing.B) { benchmarkSwarm(b, 100, IndexGrid) })
	b.Run("scan", func(b *testing.B) { benchmarkSwarm(b, 100, IndexScan) })
}

func BenchmarkSwarm500(b *testing.B) {
	b.Run("grid", func(b *testing.B) { benchmarkSwarm(b, 500, IndexGrid) })
	b.Run("scan", func(b *testing.B) { benchmarkSwarm(b, 500, IndexScan) })
}

func BenchmarkSwarm1000(b *testing.B) {
	b.Run("grid", func(b *testing.B) { benchmarkSwarm(b, 1000, IndexGrid) })
	b.Run("scan", func(b *testing.B) { benchmarkSwarm(b, 1000, IndexScan) })
}
