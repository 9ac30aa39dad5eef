package sim

// fingerprint is the FNV-1a-64 fold behind the pinned RNG digests: every
// value enters as its little-endian bytes, an int as its int64. The offset
// basis, 1469598103934665603, is not the standard FNV one; the pinned
// constants were captured with it, so it stays.
type fingerprint uint64

func newFingerprint() fingerprint { return 1469598103934665603 }

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*f = (*f ^ fingerprint(byte(v>>(8*i)))) * 1099511628211
	}
}

// stream folds a stream's full generator state: its derivation seed, the
// taps and the logical state vector. Pending words enter at their
// post-Seed values, so the fingerprint is the one an eagerly seeded
// source would give.
func (f *fingerprint) stream(g *RNG) {
	f.u64(g.seed)
	f.u64(uint64(g.src.tap))
	f.u64(uint64(g.src.feed))
	var vec [lfgLen]int64
	g.src.state(&vec)
	for _, v := range vec {
		f.u64(uint64(v))
	}
}

// treeFingerprint folds a root stream, the number of streams derived from
// it, then each of those streams in creation order.
func treeFingerprint(root *RNG, derived ...*RNG) uint64 {
	f := newFingerprint()
	f.stream(root)
	f.u64(uint64(len(derived)))
	for _, g := range derived {
		f.stream(g)
	}
	return uint64(f)
}

// state writes the source's logical state vector into dst without
// materializing anything: pending words are computed, the rest copied
// from vec.
func (s *lfgSource) state(dst *[lfgLen]int64) {
	*dst = s.vec
	seedWords(dst[:s.low], 0, s.x0)
	if s.low > lfgFeed-lfgTap {
		seedWords(dst[lfgFeed:s.low+lfgTap], lfgFeed, s.x0)
	}
}
