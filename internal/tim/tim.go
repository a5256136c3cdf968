// Package tim implements Two-phase Influence Maximization (Tang et al.,
// SIGMOD 2014 [25]), the state-of-the-art RR-set algorithm the paper builds
// TIRM on. Phase 1 (KPT estimation) derives a lower bound on OPT_s — the
// maximum expected IC spread of any s-node seed set — which sizes the RR
// sample via Eq. 5; phase 2 greedily solves max-s-cover over the sample.
//
// TIM returns a (1 − 1/e − ε)-approximation to OPT_s with probability
// ≥ 1 − n^(−ℓ) (Proposition 2). The repository uses TIM both as a
// standalone influence maximizer (tests, examples) and as the source of the
// sample-size machinery TIRM shares; both phases draw from the RR block
// stream TIRM's index grows on (rrset.SampleRangeRRInto).
package tim

import (
	"math"

	"repro/internal/rrset"
	"repro/internal/xrand"
)

// Options configures TIM and KPT estimation.
type Options struct {
	// Eps is the approximation slack ε (paper experiments use 0.1 quality /
	// 0.2 scalability). Default 0.1.
	Eps float64
	// Ell sets the failure probability n^(−ℓ). Default 1.
	Ell float64
	// MinTheta floors the sample size so tiny instances stay statistically
	// meaningful. Default 1024.
	MinTheta int
	// MaxTheta caps the sample size (0 = uncapped). The paper-scale bound
	// can demand tens of millions of sets; the cap trades guarantee slack
	// for memory on scaled-down runs.
	MaxTheta int
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.MinTheta <= 0 {
		o.MinTheta = 1024
	}
	return o
}

// EstimateKPT runs TIM's phase-1 statistical test (Algorithm 2 of [25]) and
// returns a lower-bound estimate of OPT_s: for rounds i = 1 … log2(n)−1 it
// draws c_i = (6ℓ·ln n + 6·ln log2 n)·2^i RR-sets, computes the width
// statistic κ(R) = 1 − (1 − ω(R)/m)^s, and stops when the round mean
// exceeds 2^(−i), returning n·mean/2. The result is floored at s (any
// s-node set has IC spread ≥ s) and at 1. Round i reads the first c_i sets
// of the next block-aligned range of rng's RR stream, drawn into a fresh
// family so memory stays one round's.
func EstimateKPT(s *rrset.Sampler, seedSize int, rng *xrand.Rand, opts Options) float64 {
	opts = opts.withDefaults()
	g := s.Graph()
	n := int64(g.N())
	m := g.M()
	if n == 0 || m == 0 || seedSize <= 0 {
		return math.Max(1, float64(seedSize))
	}
	log2n := math.Log2(float64(n))
	rounds := int(log2n) - 1
	if rounds < 1 {
		rounds = 1
	}
	base := 6*opts.Ell*math.Log(float64(n)) + 6*math.Log(math.Max(log2n, 1.0000001))
	from := 0 // stream position of the next round's first set
	for i := 1; i <= rounds; i++ {
		ci := int(math.Ceil(base * math.Pow(2, float64(i))))
		if ci < 16 {
			ci = 16
		}
		if opts.MaxTheta > 0 && ci > opts.MaxTheta {
			ci = opts.MaxTheta
		}
		fam := rrset.NewSetFamily()
		s.SampleRangeRRInto(from, from+rrset.StreamCeil(ci), rng, fam)
		from += fam.Len()
		var sum float64
		for j := 0; j < ci; j++ {
			w := rrset.Width(g, fam.Set(j))
			kappa := 1 - math.Pow(1-float64(w)/float64(m), float64(seedSize))
			sum += kappa
		}
		mean := sum / float64(ci)
		if mean > 1/math.Pow(2, float64(i)) {
			kpt := float64(n) * mean / 2
			return math.Max(kpt, float64(seedSize))
		}
		if opts.MaxTheta > 0 && ci >= opts.MaxTheta {
			break // cannot afford larger rounds; fall through to floor
		}
	}
	return math.Max(1, float64(seedSize))
}

// Result reports what Maximize computed.
type Result struct {
	// Seeds are the selected nodes, in selection order.
	Seeds []int32
	// EstSpread is n·F_R(Seeds), the RR-sample spread estimate.
	EstSpread float64
	// Theta is the number of RR-sets phase 2 covers.
	Theta int
	// KPT is the phase-1 lower bound on OPT_s.
	KPT float64
}

// Maximize selects up to k seeds maximizing expected IC spread over the
// sampler's graph/probabilities (classical influence maximization; no CTPs
// and no attention bounds — those belong to the regret layer).
func Maximize(s *rrset.Sampler, k int, rng *xrand.Rand, opts Options) Result {
	opts = opts.withDefaults()
	g := s.Graph()
	n := int64(g.N())
	if k <= 0 || n == 0 {
		return Result{}
	}
	if int64(k) > n {
		k = int(n)
	}
	kpt := EstimateKPT(s, k, rng.Split(0x7a11), opts)
	theta := rrset.Theta(n, int64(k), opts.Eps, opts.Ell, kpt, opts.MinTheta, opts.MaxTheta)
	fam := rrset.NewSetFamily()
	s.SampleRangeRRInto(0, rrset.StreamCeil(theta), rng, fam)
	col := rrset.NewCollection(int(n))
	col.AddFamily(fam.Prefix(theta))

	res := Result{Theta: theta, KPT: kpt}
	for len(res.Seeds) < k {
		u, _, ok := col.BestNode(nil)
		if !ok {
			break
		}
		col.CoverNode(u)
		col.Drop(u)
		res.Seeds = append(res.Seeds, u)
	}
	res.EstSpread = float64(n) * float64(col.NumCovered()) / float64(theta)
	return res
}
