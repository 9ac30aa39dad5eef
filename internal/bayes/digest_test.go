package bayes

import (
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/checkpoint"
	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// HashState is the grid's checkpoint fingerprint: equal states must hash
// equal, and any belief update must move the digest.
func TestHashState(t *testing.T) {
	sum := func(g *Grid) uint64 {
		h := checkpoint.NewHasher()
		g.HashState(h)
		return h.Sum()
	}
	a := newGrid(t)
	b := newGrid(t)
	if sum(a) != sum(b) {
		t.Fatal("identical fresh grids hash differently")
	}
	again := sum(a)
	if again != sum(a) {
		t.Fatal("hashing is not deterministic")
	}
	a.ApplyBeacon(geom.Vec2{X: 50, Y: 100}, caltable.GaussianPDF{Mu: 40, Sigma: 2})
	if sum(a) == sum(b) {
		t.Fatal("belief update did not change the digest")
	}
	// Hashing reads raw fields only; it must not disturb the belief.
	before := sum(a)
	_ = a.Estimate()
	_ = a.Entropy()
	if got := a.TotalProbability(); got <= 0 {
		t.Fatalf("TotalProbability = %v", got)
	}
	b.ApplyBeacon(geom.Vec2{X: 50, Y: 100}, caltable.GaussianPDF{Mu: 40, Sigma: 2})
	if sum(b) != before {
		t.Fatal("same update sequence produced a different digest")
	}
}

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
	h := checkpoint.NewHasher()
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
			g.HashState(h)
		}
	}
	if nearest == 0 || lerp == 0 || generic == 0 {
		t.Fatalf("replay misses a kernel: nearest %d, lerp %d, generic %d", nearest, lerp, generic)
	}
	if got := h.Sum(); got != want {
		t.Fatalf("replay digest = %#x, want %#x (nearest %d, lerp %d, generic %d)", got, want, nearest, lerp, generic)
	}
}
