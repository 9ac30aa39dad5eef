package bayes

import (
	"math"
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// replayBeacon is one beacon as a deployment hands it to the grid: the
// sender's position and the distance PDF resolved from the calibration
// table.
type replayBeacon struct {
	pos geom.Vec2
	pdf DistanceDensity
}

// calibratedReplay draws n beacons the way a paper deployment produces
// them: a receiver and a sender placed uniformly in (and up to 20 m past)
// the 200 m area, an RSSI sampled from the default radio model at their
// distance, and the PDF the default calibration table (seed 1, as
// cocoa.DefaultConfig) hands out for it. Undecodable or uncalibrated
// RSSIs are redrawn. Nearby senders get lerp-tabulated Gaussians, distant
// ones nearest-mode histograms.
func calibratedReplay(tb testing.TB, n int, seed int64) []replayBeacon {
	tb.Helper()
	m := radio.DefaultModel()
	tab, err := caltable.Shared(m, caltable.DefaultOptions(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(seed).Stream("replay")
	out := make([]replayBeacon, 0, n)
	for len(out) < n {
		rx := geom.Vec2{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)}
		tx := geom.Vec2{X: rng.Uniform(-20, 220), Y: rng.Uniform(-20, 220)}
		rssi := m.SampleRSSI(rx.Dist(tx), rng)
		if !m.Decodable(rssi) {
			continue
		}
		pdf, ok := tab.Lookup(rssi)
		if !ok {
			continue
		}
		out = append(out, replayBeacon{pos: tx, pdf: pdf})
	}
	return out
}

// TestCalibratedReplayDigest pins ApplyBeacon bitwise, not within the
// equivalence suites' 1e-9: a fixed calibrated beacon sequence — nearest
// histograms, lerp Gaussians, and every seventh beacon forced through the
// generic Density path — must fold to the digest the per-cell loops
// produced before they moved into leaf kernels. Any reordered sum or
// changed operation in a kernel moves the digest.
func TestCalibratedReplayDigest(t *testing.T) {
	const want = uint64(0xdfb6a498a57b8268)
	g := newGrid(t)
	f := newFingerprint()
	var nearest, lerp, generic int
	for i, b := range calibratedReplay(t, 400, 2) {
		if i%50 == 0 {
			g.Reset()
		}
		pdf := b.pdf
		switch lt, ok := pdf.(radialTable); {
		case i%7 == 6:
			pdf = plainDensity{inner: pdf}
			generic++
		case ok:
			if _, _, _, near := lt.RadialTable(); near {
				nearest++
			} else {
				lerp++
			}
		}
		g.ApplyBeacon(b.pos, pdf)
		if i%10 == 9 {
			f.grid(g)
		}
	}
	if nearest == 0 || lerp == 0 || generic == 0 {
		t.Fatalf("replay misses a kernel: nearest %d, lerp %d, generic %d", nearest, lerp, generic)
	}
	if got := uint64(f); got != want {
		t.Fatalf("replay digest = %#x, want %#x (nearest %d, lerp %d, generic %d)", got, want, nearest, lerp, generic)
	}
}

// fingerprint is the FNV-1a-64 fold the replay digest was captured with:
// every value enters as its little-endian bytes, an int as its int64, a
// float as its IEEE 754 bits and a bool as one byte. The offset basis,
// 1469598103934665603, is not the standard FNV one; the pinned constant
// was captured with it, so it stays.
type fingerprint uint64

func newFingerprint() fingerprint { return 1469598103934665603 }

func (f *fingerprint) byte(b byte) { *f = (*f ^ fingerprint(b)) * 1099511628211 }

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprint) bool(v bool) {
	if v {
		f.byte(1)
	} else {
		f.byte(0)
	}
}

// grid folds the grid's complete belief state: its shape, the incremental
// statistics accumulators read raw (no lazy re-sum), then every cell.
func (f *fingerprint) grid(g *Grid) {
	f.u64(uint64(g.nx))
	f.u64(uint64(g.ny))
	f.u64(uint64(g.beacons))
	f.u64(uint64(g.statsMode))
	f.u64(uint64(g.statsOps))
	f.f64(g.mass)
	f.f64(g.sumP)
	f.f64(g.sumX)
	f.f64(g.sumY)
	f.f64(g.plogp)
	f.f64(g.plogpSum)
	f.bool(g.plogpOK)
	for _, p := range g.p {
		f.f64(p)
	}
}
