package sim

import (
	"math/rand"
	"testing"
)

// schrageSeedrand is the stdlib's original Schrage-decomposition step,
// kept as the reference the fast Mersenne fold must match.
func schrageSeedrand(x int32) int32 {
	hi := x / 44488
	lo := x % 44488
	x = 48271*lo - 3399*hi
	if x < 0 {
		x += 1<<31 - 1
	}
	return x
}

func TestSeedrandMatchesSchrage(t *testing.T) {
	// Boundaries plus a dense random sweep of the Lehmer state space.
	for _, x := range []int32{1, 2, 44487, 44488, 44489, seedZero, lehmerM - 1} {
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2_000_000; i++ {
		x := int32(r.Int63n(lehmerM-1)) + 1
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestLFGMatchesStdlib is the bit-compatibility contract: for a spread of
// seeds (including the degenerate and negative cases the stdlib
// canonicalizes), the in-package source must reproduce rand.NewSource's
// stream exactly, via both Uint64 and Int63.
func TestLFGMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, -42, 89482311, lehmerM, lehmerM + 1,
		-9223372036854775808, 9223372036854775807, 123456789012345}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		ref, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			t.Fatal("stdlib source is not a Source64")
		}
		got := newSource(seed)
		for i := 0; i < 1500; i++ { // > lfgLen: crosses the tap/feed wrap
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
			}
		}
		ref = rand.NewSource(seed).(rand.Source64)
		got.Seed(seed) // reseeds a source whose words are all materialized
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestLFGDistributionsMatchStdlib checks the composed rand.Rand draws the
// simulation actually uses (Float64, NormFloat64, ExpFloat64, Intn, Perm)
// are bit-identical, not just the raw source words.
func TestLFGDistributionsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{3, 1234567, -987654321} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d: Float64 diverges at draw %d", seed, i)
			}
			if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 diverges at draw %d", seed, i)
			}
			if g, w := got.ExpFloat64(), ref.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 diverges at draw %d", seed, i)
			}
			if g, w := got.Intn(97), ref.Intn(97); g != w {
				t.Fatalf("seed %d: Intn diverges at draw %d", seed, i)
			}
		}
		gp, wp := got.Perm(25), ref.Perm(25)
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm diverges at %d", seed, i)
			}
		}
	}
}

// TestLFGConcurrentConstruction builds and draws from sources on many
// goroutines at once; run under -race it proves stream construction shares
// no mutable state (the init tables are read-only after init), as the
// parallel experiment engine requires.
func TestLFGConcurrentConstruction(t *testing.T) {
	var want [8]uint64
	for s := range want {
		want[s] = newSource(int64(1000 + s)).Uint64()
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				s := (g + i) % 8
				if got := newSource(int64(1000 + s)).Uint64(); got != want[s] {
					done <- errTestMismatch
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errTestMismatch = errorString("concurrently built source produced a different stream")

type errorString string

func (e errorString) Error() string { return string(e) }

// seedSerial is the oracle for the on-demand seeding: it runs the seeding
// LCG serially through all 1841 steps, exactly as math/rand's Seed does,
// and writes the full post-Seed vector eagerly, leaving nothing pending.
func (s *lfgSource) seedSerial(seed int64) {
	s.tap = 0
	s.feed = lfgFeed
	s.low = 0
	x := int32(seed % lehmerM)
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = seedZero
	}
	for i := -20; i < lfgLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := uint64(x) << 40
			x = seedrand(x)
			u ^= uint64(x) << 20
			x = seedrand(x)
			u ^= uint64(x)
			u ^= seedCooked[i]
			s.vec[i] = int64(u)
		}
	}
}

// lfgOracle is a source seeded by seedSerial.
func lfgOracle(seed int64) *lfgSource {
	s := &lfgSource{}
	s.seedSerial(seed)
	return s
}

// stateDigest fingerprints a source as the stream of seed.
func stateDigest(seed int64, s *lfgSource) uint64 {
	f := newFingerprint()
	f.stream(&RNG{seed: uint64(seed), src: s})
	return uint64(f)
}

// checkAgainstOracle requires got's taps, logical state and state digest to
// equal the eagerly seeded oracle's.
func checkAgainstOracle(t *testing.T, seed int64, draws int, got, oracle *lfgSource) {
	t.Helper()
	if got.tap != oracle.tap || got.feed != oracle.feed {
		t.Fatalf("seed %d after %d draws: tap/feed = %d/%d, oracle %d/%d",
			seed, draws, got.tap, got.feed, oracle.tap, oracle.feed)
	}
	var state [lfgLen]int64
	got.state(&state)
	for j := range oracle.vec {
		if g, w := state[j], oracle.vec[j]; g != w {
			t.Fatalf("seed %d after %d draws: word %d = %d, oracle %d (low %d)",
				seed, draws, j, g, w, got.low)
		}
	}
	if g, w := stateDigest(seed, got), stateDigest(seed, oracle); g != w {
		t.Fatalf("seed %d after %d draws: state digest %#x, oracle %#x", seed, draws, g, w)
	}
}

// drawCompare draws once from all three sources through Uint64 or Int63 and
// fails on any disagreement.
func drawCompare(t *testing.T, seed int64, k int, int63 bool, got, oracle *lfgSource, ref rand.Source64) {
	t.Helper()
	if int63 {
		g, o, w := got.Int63(), oracle.Int63(), ref.Int63()
		if g != w || o != w {
			t.Fatalf("seed %d draw %d: Int63 = %d, oracle %d, stdlib %d", seed, k, g, o, w)
		}
		return
	}
	g, o, w := got.Uint64(), oracle.Uint64(), ref.Uint64()
	if g != w || o != w {
		t.Fatalf("seed %d draw %d: Uint64 = %d, oracle %d, stdlib %d", seed, k, g, o, w)
	}
}

// TestLFGLazyMatchesEagerOracle walks every draw-count prefix across the
// materialization blocks, the end of the pristine tap words (273), full
// materialization (334) and the feed/tap wraps, with Uint64 and Int63
// interleaved: after each prefix the on-demand source must agree with
// math/rand on the outputs and with the serial oracle on taps, logical
// state and state digest.
func TestLFGLazyMatchesEagerOracle(t *testing.T) {
	seeds := []int64{0, 1, -7, 42, lehmerM, 2 * lehmerM,
		-9223372036854775808, 9223372036854775807}
	for _, seed := range seeds {
		got, oracle := newSource(seed), lfgOracle(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		checkAgainstOracle(t, seed, 0, got, oracle)
		for k := 1; k <= 1300; k++ {
			drawCompare(t, seed, k, k%3 == 0 || k%7 == 0, got, oracle, ref)
			checkAgainstOracle(t, seed, k, got, oracle)
		}
	}
}

// FuzzLFGStream draws a prefix, reseeds mid-stream (the RNGPool path) and
// draws again, comparing against math/rand and the serial oracle.
func FuzzLFGStream(f *testing.F) {
	f.Add(int64(0), uint16(0), int64(1))
	f.Add(int64(1), uint16(16), int64(-7))
	f.Add(int64(-7), uint16(273), int64(42))
	f.Add(int64(42), uint16(334), int64(lehmerM))
	f.Add(int64(2*lehmerM), uint16(335), int64(-9223372036854775808))
	f.Add(int64(9223372036854775807), uint16(1300), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64) {
		n := int(draws) % 1400
		got := newSource(seed)
		for round, s := range []int64{seed, reseed} {
			if round > 0 {
				got.Seed(s)
			}
			oracle := lfgOracle(s)
			ref := rand.NewSource(s).(rand.Source64)
			for k := 1; k <= n; k++ {
				drawCompare(t, s, k, k%2 == round, got, oracle, ref)
			}
			checkAgainstOracle(t, s, n, got, oracle)
			n = 1400 - 1 - n // the second round stops at a different count
		}
	})
}

func BenchmarkNewSourceStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = rand.NewSource(int64(i))
	}
}

func BenchmarkNewSourceLFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = newSource(int64(i)) // distinct seeds
	}
}

func BenchmarkStreamDerive(b *testing.B) {
	root := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = root.StreamN("bench", i%64)
	}
}
