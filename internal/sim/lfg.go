package sim

// This file reimplements math/rand's additive lagged-Fibonacci source
// (Mitchell & Reeds: vec[feed] += vec[tap] over 607 int64 words, tap
// distance 273) so that stream construction is cheap. The stdlib source is
// bit-exact but pays dearly at Seed time: 1841 Schrage-style Lehmer steps,
// each with two integer divisions, behind a function call. CoCoA derives a
// fresh named stream per robot per noise source, most of which are drawn
// from only a handful of times, so seeding is a hot path here even though
// it is a one-off cost for typical users.
//
// Two changes make it fast while keeping every draw bit-identical:
//
//  1. The seeding LCG x_k = 48271^k·x₀ mod (2³¹−1) is evaluated by jump
//     ahead: post-Seed word i is
//     (x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}) ^ rngCooked[i], and a
//     table of the powers 48271^(21+3i+j) built at init turns each word
//     into three independent multiply-and-Mersenne-fold steps with no
//     serial chain through the other 606 words.
//  2. Seed is O(1): it stores x₀ and the taps, and the state words are
//     computed on demand. Draw k ≤ 334 reads feed word 334−k and tap word
//     607−k; the tap word is still pristine while k ≤ 273, so feed word
//     i < 334 pairs with pristine tap word i+273 (when i ≥ 61). Uint64
//     materializes lfgBlock pending feed words (and their partners) when
//     feed drops below the low-water mark low, reusing the feed-wrap
//     compare, so a stream pays only for the words it reads; after 334
//     draws every word has been read and low is 0.
//
// The seeding constants (math/rand's rngCooked table) are not copied from
// the stdlib source file: they are recovered algebraically at init by
// draining one stdlib generator and inverting the recurrence, then verified
// through the production Seed against a second stdlib stream. Bit-equality
// with math/rand is therefore checked at process start and again, across
// many seeds and every materialization boundary, in the tests.

import "math/rand"

const (
	lfgLen   = 607
	lfgTap   = 273
	lfgFeed  = lfgLen - lfgTap // 334
	lfgMask  = 1<<63 - 1
	lfgBlock = 16        // pending feed words materialized per refill
	lehmerM  = 1<<31 - 1 // 2³¹−1, the Mersenne modulus of the seeding LCG
	lehmerA  = 48271
	seedZero = 89482311 // stdlib's replacement for the degenerate seed 0
)

// seedCooked holds math/rand's rngCooked seeding table, recovered at init
// by recoverCooked. Stored in the XOR domain as uint64.
var seedCooked [lfgLen]uint64

// lehmerPow[i][j] is 48271^(21+3i+j) mod (2³¹−1): multiplying it into x₀
// jumps the seeding LCG straight to the j-th draw behind state word i.
var lehmerPow [lfgLen][3]uint64

// seedrand advances the seeding LCG: x ← 48271·x mod (2³¹−1). The stdlib
// uses Schrage's decomposition to stay within 32-bit intermediates; with a
// 64-bit multiply available, reducing modulo a Mersenne number is a fold:
// for p = q·2³¹ + r, p ≡ q + r (mod 2³¹−1). q < 48271 so one conditional
// subtraction canonicalizes. Agreement with the Schrage form is exhaustive-
// randomly tested in lfg_test.go.
func seedrand(x int32) int32 {
	return int32(mulmod(uint64(x), lehmerA))
}

// mulmod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1) by one Mersenne
// fold and one conditional subtraction. The fold leaves v ≤ 2³²−2, so the
// subtraction leaves v ≤ 2³¹−1, and v = 2³¹−1 would mean a·b ≡ 0: the
// modulus is prime and divides neither factor.
func mulmod(a, b uint64) uint64 {
	p := a * b
	v := p&lehmerM + p>>31
	return min(v, v-lehmerM) // v−M wraps above v unless v ≥ M
}

// seedWords writes post-Seed state words first, first+1, … of the stream
// whose seeding LCG starts at x0 into dst. Each word is three independent
// jump-ahead steps, so the loop has no serial chain.
func seedWords(dst []int64, first int, x0 uint64) {
	pow, cooked := lehmerPow[first:first+len(dst)], seedCooked[first:first+len(dst)]
	for k := range dst {
		p := &pow[k]
		dst[k] = int64(mulmod(p[0], x0)<<40 ^ mulmod(p[1], x0)<<20 ^ mulmod(p[2], x0) ^ cooked[k])
	}
}

// lfgSource is a drop-in replacement for the value returned by
// rand.NewSource, emitting the identical stream for every seed.
type lfgSource struct {
	tap, feed int
	// low is the lowest materialized feed word: vec[i] for i < low, and
	// their tap partners vec[i+lfgTap] for i ≥ lfgFeed−lfgTap, are still
	// pending (see refill). 0 once every word has been materialized.
	low int
	x0  uint64 // canonical seeding LCG start value
	vec [lfgLen]int64
}

var _ rand.Source64 = (*lfgSource)(nil)

// newSource returns a Source64 seeded like rand.NewSource(seed).
func newSource(seed int64) *lfgSource {
	s := &lfgSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the canonical stream for seed. It touches no
// state word: every word is pending until a draw needs it.
func (s *lfgSource) Seed(seed int64) {
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = seedZero
	}
	s.x0 = uint64(x)
	s.tap = 0
	s.feed = lfgFeed
	s.low = lfgFeed
}

// Uint64 returns the next 64-bit word of the lagged-Fibonacci stream.
func (s *lfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < s.low {
		s.refill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the low 63 bits of the next word, matching rngSource. It is
// the method rand.Rand draws through, so it repeats Uint64's body instead
// of calling it: the out-of-line refill call puts Uint64 over the inlining
// budget, and a call per draw would cost more than the duplication.
func (s *lfgSource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < s.low {
		s.refill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & lfgMask
}

// refill runs when feed has dropped below low. Once every word is
// materialized (low == 0) that means feed went negative and it wraps;
// before, it materializes the next block of pending feed words below low
// together with their still-pristine tap partners.
func (s *lfgSource) refill() {
	if s.low == 0 {
		s.feed += lfgLen
		return
	}
	lo := max(s.low-lfgBlock, 0)
	seedWords(s.vec[lo:s.low], lo, s.x0)
	if p := max(lo, lfgFeed-lfgTap); p < s.low {
		seedWords(s.vec[p+lfgTap:s.low+lfgTap], p+lfgTap, s.x0)
	}
	s.low = lo
}

// initLehmerPow fills lehmerPow by stepping the seeding LCG from x₀ = 1,
// whose k-th value is 48271^k itself.
func initLehmerPow() {
	x := int32(1)
	for k := 1; k <= 20; k++ {
		x = seedrand(x)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			x = seedrand(x)
			lehmerPow[i][j] = uint64(x)
		}
	}
}

// recoverCooked reconstructs the stdlib's rngCooked seeding table without
// copying it: drain 607 outputs from a stdlib source and invert the
// generator. The k-th output (k = 1…) reads positions feed = 334−k and
// tap = 607−k (mod 607) and overwrites the feed slot, so with out[k] the
// k-th output and vec[] the post-Seed state (all arithmetic in wrapping
// uint64):
//
//	k ∈ [335,607]: feed slot 941−k is still pristine and the tap slot was
//	               overwritten at step k−273, so vec[941−k] = out[k] − out[k−273]
//	k ∈ [274,334]: same shape on the low side: vec[334−k] = out[k] − out[k−273]
//	k ∈ [  1,273]: both operands pristine: vec[334−k] = out[k] − vec[607−k]
//
// That yields the full post-Seed vector for the probe seed; XORing away the
// seeding LCG's contribution (seedWords) leaves rngCooked.
func recoverCooked() {
	const probeSeed = 1
	src, ok := rand.NewSource(probeSeed).(rand.Source64)
	if !ok {
		panic("sim: math/rand source does not implement Source64")
	}
	var out [lfgLen + 1]uint64 // 1-indexed
	for k := 1; k <= lfgLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [lfgLen]uint64
	for k := 335; k <= lfgLen; k++ {
		vec[941-k] = out[k] - out[k-273]
	}
	for k := 274; k <= 334; k++ {
		vec[334-k] = out[k] - out[k-273]
	}
	for k := 1; k <= 273; k++ {
		vec[334-k] = out[k] - vec[607-k]
	}

	// Strip the seeding LCG stream for the probe seed, leaving the table.
	// seedCooked is still all zero here, so seedWords yields the bare LCG
	// contribution.
	var lcg [lfgLen]int64
	seedWords(lcg[:], 0, probeSeed)
	for i := range seedCooked {
		seedCooked[i] = vec[i] ^ uint64(lcg[i])
	}

	// Self-check through the production Seed before anything trusts the
	// table: a fresh lfgSource must reproduce the drained stdlib stream
	// (crossing every refill block and the first feed wrap), and must agree
	// with a second stdlib source on an unrelated seed.
	probe := &lfgSource{}
	probe.Seed(probeSeed)
	for k := 1; k <= lfgLen; k++ {
		if probe.Uint64() != out[k] {
			panic("sim: lagged-Fibonacci table recovery failed self-check")
		}
	}
	ref, _ := rand.NewSource(20240527).(rand.Source64)
	probe.Seed(20240527)
	for k := 1; k <= lfgLen; k++ {
		if probe.Uint64() != ref.Uint64() {
			panic("sim: lagged-Fibonacci source diverges from math/rand")
		}
	}
}

func init() {
	initLehmerPow()
	recoverCooked()
}
