package sim

import "testing"

// drawSome exercises every distribution once and returns the samples, so a
// pooled stream can be compared draw-for-draw against a fresh one.
func drawSome(g *RNG) [6]float64 {
	return [6]float64{
		g.Float64(),
		g.Uniform(-3, 9),
		float64(g.Intn(1000)),
		g.Normal(1, 2),
		g.Exp(5),
		g.Rayleigh(2),
	}
}

// A pooled root and its derived streams must be bit-identical to freshly
// constructed ones — the property the scratch reuse path rests on. Each
// round leaves its odometry/mac/team streams drawn exactly a count around
// a refill block edge (16), the end of the pristine tap words (273) or
// full materialization (334), so the next round reseeds half-materialized
// streams.
func TestRNGPoolBitIdenticalToFresh(t *testing.T) {
	p := NewRNGPool()
	for round, draws := range []int{0, 15, 16, 17, 272, 273, 274, 333, 334, 335, 0} {
		seed := []int64{42, -7}[round%2]
		p.Recycle()
		fresh := NewRNG(seed)
		pooled := p.Root(seed)
		if got, want := drawSome(pooled), drawSome(fresh); got != want {
			t.Fatalf("round %d: root draws %v, want %v", round, got, want)
		}
		var streams [][2]*RNG
		for _, name := range []string{"mac", "team"} {
			streams = append(streams, [2]*RNG{pooled.Stream(name), fresh.Stream(name)})
		}
		for n := 0; n < 3; n++ {
			streams = append(streams, [2]*RNG{pooled.StreamN("odometry", n), fresh.StreamN("odometry", n)})
		}
		// tree fingerprints one side's root and derived streams, in
		// creation order.
		tree := func(side int, root *RNG) uint64 {
			derived := make([]*RNG, len(streams))
			for i, s := range streams {
				derived[i] = s[side]
			}
			return treeFingerprint(root, derived...)
		}
		if tree(0, pooled) != tree(1, fresh) {
			t.Fatalf("round %d: reseeded tree digest differs from fresh", round)
		}
		for i, s := range streams {
			for k := 0; k < draws; k++ {
				if g, w := s[0].r.Int63(), s[1].r.Int63(); g != w {
					t.Fatalf("round %d: stream %d draw %d = %d, want %d", round, i, k, g, w)
				}
			}
		}
		if tree(0, pooled) != tree(1, fresh) {
			t.Fatalf("round %d: tree digest after %d draws differs from fresh", round, draws)
		}
		// One more stream per round checks the distributions on a reseed;
		// it is never left at a particular draw count.
		if got, want := drawSome(pooled.Stream("dist")), drawSome(fresh.Stream("dist")); got != want {
			t.Fatalf("round %d: stream dist draws %v, want %v", round, got, want)
		}
	}
}

// Recycling must reuse the retained streams instead of growing the pool,
// and a partial second handout leaves the unclaimed streams untouched.
func TestRNGPoolRecycleReuses(t *testing.T) {
	p := NewRNGPool()
	root := p.Root(1)
	for i := 0; i < 5; i++ {
		root.StreamN("s", i)
	}
	size := p.Size()
	if size != 6 {
		t.Fatalf("pool retains %d streams after first handout, want 6", size)
	}
	p.Recycle()
	root = p.Root(2)
	root.Stream("only")
	if p.Size() != size {
		t.Fatalf("pool grew to %d on reuse, want %d", p.Size(), size)
	}
	p.Recycle()
	for i := 0; i < 10; i++ {
		p.Root(3)
	}
	if p.Size() != 10 {
		t.Fatalf("pool size %d after over-demand, want 10", p.Size())
	}
}

// Derived streams of a pooled RNG must themselves be pool-backed — a
// pooled team that derives hundreds of per-robot streams should allocate
// none of them on reuse.
func TestRNGPoolDerivedStreamsPooled(t *testing.T) {
	p := NewRNGPool()
	root := p.Root(7)
	s := root.Stream("a")
	if s.pool != p {
		t.Fatal("derived stream not pool-backed")
	}
	p.Recycle()
	root2 := p.Root(7)
	if root2 != root {
		t.Fatal("recycled root is a different object")
	}
	if s2 := root2.Stream("a"); s2 != s {
		t.Fatal("recycled derived stream is a different object")
	}
}
