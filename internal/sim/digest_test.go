package sim

import "testing"

// TestRNGHashTreePinned pins the generator state of streams caught before,
// inside and after on-demand materialization: they must fingerprint to the
// bytes the eagerly seeded implementation produced, so no change to stream
// seeding can alter a single word of state. The constant was captured from
// the eagerly seeded implementation.
func TestRNGHashTreePinned(t *testing.T) {
	const want = 0x6b5659bfb65d8ad4
	root := NewRNG(20261017)
	var derived []*RNG
	for i, n := range []int{0, 1, 16, 273, 334, 1000} {
		g := root.StreamN("pin", i)
		for k := 0; k < n; k++ {
			g.r.Int63()
		}
		derived = append(derived, g)
	}
	if got := treeFingerprint(root, derived...); got != want {
		t.Fatalf("rng tree digest %#x, want %#x", got, uint64(want))
	}
}
