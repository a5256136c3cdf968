package core

import (
	"math"

	"repro/internal/rrset"
	"repro/internal/xrand"
)

// TIRMOptions configures Two-phase Iterative Regret Minimization
// (Algorithm 2).
type TIRMOptions struct {
	// Eps is ε of Eq. 5 (paper: 0.1 quality, 0.2 scalability). Default 0.1.
	Eps float64
	// Ell sets the n^(−ℓ) failure bound. Default 1.
	Ell float64
	// MinTheta floors each ad's RR sample (also the pilot-sample size used
	// for width-based KPT refreshes). Default 4096.
	MinTheta int
	// MaxTheta caps each ad's RR sample (0 = uncapped). Paper-scale θ runs
	// to tens of millions of sets; scaled-down runs cap it to bound memory,
	// trading guarantee slack that does not change who-wins shapes.
	MaxTheta int
	// MaxSeedsPerAd caps |S_i| (0 = number of nodes).
	MaxSeedsPerAd int
	// CandidateDepth extends SelectBestNode (Algorithm 3): instead of
	// scoring only the single max-coverage node per ad, the top
	// CandidateDepth eligible nodes are scored by regret drop and the best
	// one proposed. Depth 1 (default) is the paper's algorithm; deeper
	// search helps near the budget boundary, where the max-coverage node
	// can overshoot while a smaller node still reduces regret (the same
	// non-monotonicity Algorithm 1's exact argmax handles, cf. celfQueue).
	CandidateDepth int
	// SoftCoverage enables the TIRM-W extension: instead of removing an
	// RR-set once any seed covers it (the paper's Algorithm 2, which
	// credits each set to its first seed and therefore underestimates
	// revenue when seeds' reach overlaps), per-set weights Π(1−δ_u) are
	// maintained so marginal gains and revenue match the exact expectation
	// over CTP coins (see rrset.WeightedCollection). Off by default —
	// the paper's semantics — and compared in the ABL-SOFT ablation bench.
	SoftCoverage bool
}

// WithDefaults returns the options with every unset field at its
// documented default — the normalization TIRM, BuildIndex and the selection
// loop apply, exported so a distributed selection run sizes θ from the
// identical effective options.
func (o TIRMOptions) WithDefaults() TIRMOptions {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.MinTheta <= 0 {
		o.MinTheta = 4096
	}
	if o.CandidateDepth <= 0 {
		o.CandidateDepth = 1
	}
	return o
}

// TIRMResult reports the allocation plus the algorithm's internal
// estimates and sampling statistics (Table 4 instrumentation).
type TIRMResult struct {
	Alloc      *Allocation
	EstRevenue []float64
	// FinalTheta is the per-ad RR-sample size at termination.
	FinalTheta []int
	// FinalSeedTarget is the per-ad s_i estimate at termination.
	FinalSeedTarget []int
	// TotalSetsSampled counts RR-sets freshly drawn from the graph during
	// this run. For TIRM it covers the whole sample; for a warm
	// AllocateFromIndex run it is the on-demand growth only (0 when the
	// index already held enough sets).
	TotalSetsSampled int64
	// SetsReused counts sets served from a preexisting index sample
	// instead of being drawn — the work the warm-start path saved.
	SetsReused int64
	// MemBytes estimates the peak footprint of the per-ad RR-set indexes
	// (Table 4 instrumentation).
	MemBytes   int64
	Iterations int
	// KernelCounts tallies, by rrset.KernelID, how many per-ad coverage
	// collections ran on each cover kernel this run (sparse vs bitset,
	// chosen per hard-coverage ad by rrset.Inverted.PrepareCover's density
	// rule; a soft-coverage collection always counts as sparse). A fixed
	// array, not a map, so the warm path stays allocation-free.
	KernelCounts [rrset.NumKernels]int
	// OpeningsBuilt counts the run's ads whose coverage state built its
	// opening (row clip and initial heap for this θ) on the index instead
	// of copying a stored one — 0 on traffic that repeats θ, the number of
	// active ads on a θ the index has not seen or has evicted. A report,
	// never an input; single-node runs only (a cluster's shards keep their
	// own openings).
	OpeningsBuilt int
}

// kptFromWidths evaluates TIM's width statistic KPT(s) = n·mean(κ_s(R))/2
// with κ_s(R) = 1 − (1 − ω(R)/m)^s over the fixed pilot sample, floored at
// max(s, 1). The paper sizes θ with L(s, ε) at every seed-target revision;
// re-running full KPT estimation each time would resample from scratch, so
// we keep the pilot widths and recompute the statistic for the new s — the
// same estimator on a fixed sample (documented substitution, DESIGN.md §3.5).
//
// This sits on the warm-allocation hot path (every seed-target revision of
// every request re-evaluates it), so the math.Pow per width is sidestepped
// where the result provably cannot change: s == 1 reduces to the Pow
// special case Pow(y, 1) == y, and memo — an optional caller-owned scratch
// map, cleared here — caches the per-width term across the (few dozen)
// distinct width values a pilot sample actually contains. Terms are summed
// in width order with bit-identical values either way, so the result is
// byte-for-byte the historical one.
func kptFromWidths(widths []int64, s int, n int, m int64, memo map[int64]float64) float64 {
	floor := math.Max(1, float64(s))
	if len(widths) == 0 || m == 0 {
		return floor
	}
	var sum float64
	switch {
	case s == 1:
		for _, w := range widths {
			// Pow(y, 1) returns y exactly, so 1 − y is the exact term.
			sum += 1 - (1 - float64(w)/float64(m))
		}
	case memo != nil:
		clear(memo)
		fs := float64(s)
		for _, w := range widths {
			term, ok := memo[w]
			if !ok {
				term = 1 - math.Pow(1-float64(w)/float64(m), fs)
				memo[w] = term
			}
			sum += term
		}
	default:
		fs := float64(s)
		for _, w := range widths {
			sum += 1 - math.Pow(1-float64(w)/float64(m), fs)
		}
	}
	kpt := float64(n) * (sum / float64(len(widths))) / 2
	return math.Max(kpt, floor)
}

// InitialTheta returns θ_j as Algorithm 2's initialization sets it (s_j =
// 1): L(1, ε) of Eq. 5 from the KPT estimate over the ad's pilot widths,
// which must be in stream order. It is the depth BuildIndex presamples an
// ad to; the shard coordinator, which reads the pilot from the ad's owner,
// warms a cluster to the same depth with it.
func InitialTheta(widths []int64, n int, m int64, opts TIRMOptions) int {
	opts = opts.WithDefaults()
	kpt := kptFromWidths(widths, 1, n, m, nil)
	return rrset.Theta(int64(n), 1, opts.Eps, opts.Ell, kpt, opts.MinTheta, opts.MaxTheta)
}

// TIRM implements Algorithm 2: per-ad RR-set collections sized by Eq. 5,
// greedy (user, ad) selection by maximum regret drop with marginal revenues
// cpe(i)·n·δ(u,i)·F_R(u) (Theorem 5), iterative seed-set-size estimation
// with sample growth, and UpdateEstimates re-calibration (Algorithm 4).
//
// TIRM is a thin wrapper over the two-stage API: it builds a fresh RR-set
// index (BuildIndex) and immediately runs selection against it
// (AllocateFromIndex). Callers that allocate more than once — what-if
// queries, budget re-negotiations, the internal/serve server — should hold
// on to an Index and call AllocateFromIndex directly: for a fixed seed the
// allocation is identical and the sampling cost is paid only once. Only
// rng's seed matters (streams are derived by pure splits).
func TIRM(inst *Instance, rng *xrand.Rand, opts TIRMOptions) (*TIRMResult, error) {
	idx, err := BuildIndex(inst, rng.Seed(), opts)
	if err != nil {
		return nil, err
	}
	res, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		return nil, err
	}
	// Attribute the build-time presampling to this run: with a throwaway
	// index nothing is reused.
	res.TotalSetsSampled = idx.SetsSampled()
	res.SetsReused = 0
	return res, nil
}

// RegretOver sums RegretTerm (Eq. 3) over the listed ads (nil or empty =
// every ad) against the budgets a run actually used: budgets, when
// non-nil, overrides the instance's, and spent, when non-nil, is
// subtracted first — the residual target of an ad whose budget is fully
// spent is 0, never negative. revenue and seeds are indexed like inst.Ads.
// It is the one place regret is evaluated post hoc, whoever estimated the
// revenue.
func RegretOver(inst *Instance, ads []int, budgets, spent, revenue []float64, seeds [][]int32) float64 {
	var total float64
	term := func(i int) {
		budget := inst.Ads[i].Budget
		if budgets != nil {
			budget = budgets[i]
		}
		if spent != nil {
			budget = math.Max(0, budget-spent[i])
		}
		total += RegretTerm(budget, revenue[i], inst.Lambda, len(seeds[i]))
	}
	if len(ads) == 0 {
		for i := range inst.Ads {
			term(i)
		}
	}
	for _, i := range ads {
		term(i)
	}
	return total
}

// EstRegret computes total regret under TIRM's own revenue estimates.
func (r *TIRMResult) EstRegret(inst *Instance) float64 {
	return RegretOver(inst, nil, nil, nil, r.EstRevenue, r.Alloc.Seeds)
}
