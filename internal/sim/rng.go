package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the CoCoA models need and with
// named sub-streams, so that independent parts of the simulation (mobility,
// channel noise, odometry noise, MAC backoff) draw from decorrelated
// sequences. Two runs with the same root seed are bit-identical.
type RNG struct {
	seed uint64
	r    *rand.Rand
	// src is the stream's lagged-Fibonacci source, the whole generator
	// state (rand.Rand keeps none of its own for the distributions used
	// here). r offers no accessor for it, so the state-pin tests read it
	// through this field.
	src *lfgSource
	// pool, when non-nil, is the RNGPool this stream and every stream
	// derived from it draw their storage from.
	pool *RNGPool
}

// NewRNG returns a root random stream for the given seed. The underlying
// source is the in-package lagged-Fibonacci reimplementation (see lfg.go),
// bit-identical to rand.NewSource but seeded in O(1): its state words are
// computed on demand, so a stream pays only for the words it reads.
func NewRNG(seed int64) *RNG {
	src := newSource(seed)
	return &RNG{seed: uint64(seed), r: rand.New(src), src: src}
}

// streamSeed derives the sub-stream seed for Stream: FNV-64a over the parent
// seed bytes followed by the stream name. The derivation depends only on
// (seed, name), so streams are stable across code changes that reorder draw
// sites.
func streamSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// streamSeedN derives the sub-stream seed for StreamN: streamSeed's hash
// extended with the index bytes.
func streamSeedN(seed uint64, name string, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(n) >> (8 * i))
	}
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// make materializes a stream for the derived seed s, drawing storage from
// the parent's pool when it has one.
func (g *RNG) make(s uint64) *RNG {
	if g.pool != nil {
		return g.pool.get(s)
	}
	src := newSource(int64(s))
	return &RNG{seed: s, r: rand.New(src), src: src}
}

// Stream derives an independent named sub-stream. The derivation hashes the
// root seed with the name, so streams are stable across code changes that
// reorder draw sites.
func (g *RNG) Stream(name string) *RNG {
	return g.make(streamSeed(g.seed, name))
}

// StreamN derives an independent sub-stream keyed by name and an index,
// typically a node ID.
func (g *RNG) StreamN(name string, n int) *RNG {
	return g.make(streamSeedN(g.seed, name, n))
}

// RNGPool recycles RNG streams across consecutive runs. A run's streams are
// its single largest construction allocation (each lagged-Fibonacci source
// carries a ~5 KB state vector, and a team creates several streams per
// robot), yet a reseed is a complete O(1) state reset: rand.Rand.Seed
// clears the Rand's cached values and lfgSource.Seed marks every feedback
// word pending, so stale words are recomputed before any draw reads them.
// The pool therefore keeps every stream it ever handed out and, on Recycle,
// simply marks them all free; the next run's derivations reseed them in
// place, producing sequences bit-identical to freshly constructed streams.
//
// A pool serves one run at a time: Recycle must not be called while any
// stream from the previous handout can still draw. The zero value is not
// usable; construct with NewRNGPool.
type RNGPool struct {
	all  []*RNG
	used int
}

// NewRNGPool returns an empty stream pool.
func NewRNGPool() *RNGPool {
	return &RNGPool{}
}

// Root returns the pool-backed equivalent of NewRNG(seed): a root stream
// whose derived sub-streams also draw from the pool.
func (p *RNGPool) Root(seed int64) *RNG { return p.get(uint64(seed)) }

// get hands out the next free pooled stream reseeded to s, growing the pool
// when every retained stream is in use.
func (p *RNGPool) get(s uint64) *RNG {
	if p.used < len(p.all) {
		g := p.all[p.used]
		p.used++
		g.seed = s
		g.r.Seed(int64(s))
		return g
	}
	src := newSource(int64(s))
	g := &RNG{seed: s, r: rand.New(src), src: src, pool: p}
	p.all = append(p.all, g)
	p.used++
	return g
}

// Recycle returns every handed-out stream to the pool. The caller must
// guarantee that no stream from the previous handout is drawn from again.
func (p *RNGPool) Recycle() {
	p.used = 0
}

// Size returns the number of streams the pool retains (free and in use),
// for diagnostics and tests.
func (p *RNGPool) Size() int { return len(p.all) }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation. The paper's odometry and RSSI noise are both zero-mean
// Gaussians of this form.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// StdNormal returns the standard-normal draw Normal scales: Normal(mean,
// stddev) consumes exactly one StdNormal and returns mean + stddev*z. A
// caller that writes that expression itself reproduces Normal's bits while
// choosing mean after the draw.
func (g *RNG) StdNormal() float64 { return g.r.NormFloat64() }

// Exp returns an exponential sample with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Rayleigh returns a Rayleigh-distributed sample with the given scale
// parameter sigma. Rayleigh fading models the multipath amplitude
// fluctuation the paper observes past 40 m (Figure 1(b)).
func (g *RNG) Rayleigh(sigma float64) float64 {
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return sigma * math.Sqrt(-2*math.Log(1-u))
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
