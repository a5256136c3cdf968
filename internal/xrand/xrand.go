// Package xrand provides deterministic, splittable random number streams and
// the sampling distributions used throughout the repository.
//
// Every stochastic component in this codebase (dataset generation, Monte
// Carlo diffusion, RR-set sampling) draws from an xrand stream seeded
// explicitly, so that experiments are reproducible bit-for-bit given the
// same seed and GOMAXPROCS-independent wherever parallelism is used (each
// worker receives its own derived stream).
package xrand

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic pseudo-random stream. It wraps math/rand/v2's PCG
// generator and adds the distribution helpers the repository needs.
//
// The generator is reachable two ways: through the embedded *rand.Rand
// (IntN, Shuffle, Perm and the rest of math/rand/v2's methods, each of which
// calls the generator through the rand.Source interface) and directly
// through pcg, which Float64 — and so Bernoulli and Bernoulli32, the coins of
// the RR-set and diffusion inner loops — steps without the interface call,
// so they inline down to the generator. v2's Rand keeps no state of its own
// (it buffers nothing), so both views advance the one PCG and any
// interleaving of calls reads the same sequence math/rand/v2 would give.
type Rand struct {
	*rand.Rand
	pcg  *rand.PCG
	seed uint64
}

// New returns a stream seeded with seed. Two streams with the same seed
// produce identical sequences.
func New(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, splitmix64(seed))
	return &Rand{Rand: rand.New(pcg), pcg: pcg, seed: seed}
}

// Float64 returns a uniform sample from [0, 1): math/rand/v2's own
// expression (the low 53 bits of one Uint64), bit for bit, on the concrete
// generator.
func (r *Rand) Float64() float64 {
	return float64(r.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Seed returns the seed the stream was created with.
func (r *Rand) Seed() uint64 { return r.seed }

// Split derives an independent child stream from this stream's seed and the
// given index. Splitting is a pure function of (seed, idx): it does not
// consume state from the parent, so parallel workers can be seeded
// deterministically regardless of scheduling order.
func (r *Rand) Split(idx uint64) *Rand {
	return New(r.splitSeed(idx))
}

func (r *Rand) splitSeed(idx uint64) uint64 {
	return splitmix64(r.seed ^ splitmix64(idx+0x9e3779b97f4a7c15))
}

// State is a stream's position: its generator state and its seed, as a
// value. Capture takes one and Restore puts it back, neither allocating, so
// a stream can be replayed from a point it passed, or a caller can keep one
// Rand and move it between streams (see SplitState).
type State struct {
	pcg  rand.PCG
	seed uint64
}

// Capture returns the stream's current position.
func (r *Rand) Capture() State { return State{pcg: *r.pcg, seed: r.seed} }

// Restore moves the stream to s: every draw after it reads what the stream
// s was captured from read after the capture, and Split derives from s's
// seed.
func (r *Rand) Restore(s State) {
	*r.pcg = s.pcg
	r.seed = s.seed
}

// SplitState is the starting position of Split(idx): Restore(SplitState(i))
// turns any Rand into that child stream without allocating one.
func (r *Rand) SplitState(idx uint64) State {
	seed := r.splitSeed(idx)
	s := State{seed: seed}
	s.pcg.Seed(seed, splitmix64(seed))
	return s
}

// Skip advances the stream by n raw generator steps: the position after n
// Uint64 (or Float64) draws, discarding the values.
func (r *Rand) Skip(n int) {
	for ; n > 0; n-- {
		r.pcg.Uint64()
	}
}

// splitmix64 is the SplitMix64 mixing function, used to decorrelate seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uniform returns a sample from U[lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential returns a sample from an exponential distribution with the
// given mean, via the inverse transform on U(0,1) (the technique the paper
// cites from Devroye [11] for the EPINIONS probabilities).
func (r *Rand) Exponential(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0); Float64 is in [0,1).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// ExponentialClamped samples Exponential(mean) clamped into [0, hi]. It is
// used for influence probabilities, which must stay in [0, 1].
func (r *Rand) ExponentialClamped(mean, hi float64) float64 {
	// The builtin min is math.Min to the bit (NaN, ±0 and ±Inf alike),
	// compiled inline.
	return min(r.Exponential(mean), hi)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bernoulli32 returns true with probability p (float32 fast path used by
// the diffusion and RR-set inner loops).
func (r *Rand) Bernoulli32(p float32) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float32(r.Float64()) < p
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0 (mirrors
// math/rand/v2 semantics).
func (r *Rand) IntN(n int) int { return r.Rand.IntN(n) }

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// PowerLawWeights returns n weights following a power-law with the given
// exponent beta > 1 (heavier tails for smaller beta), normalized to sum to
// 1. Weight i is proportional to (i + i0)^(-1/(beta-1)), the standard
// Chung-Lu construction that yields a degree distribution with exponent
// beta. The slice is deterministic given (n, beta) — no randomness — and the
// caller typically shuffles node identities separately.
func PowerLawWeights(n int, beta float64) []float64 {
	if n <= 0 {
		return nil
	}
	if beta <= 1 {
		panic("xrand: power-law exponent must be > 1")
	}
	alpha := 1 / (beta - 1)
	w := make([]float64, n)
	var sum float64
	const i0 = 1.0 // offset keeps the maximum weight finite
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i)+i0, -alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
