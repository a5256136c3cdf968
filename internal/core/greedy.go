package core

import "fmt"

// GreedyOptions configures Algorithm 1.
type GreedyOptions struct {
	// MaxSeedsPerAd caps |S_i| as a safety valve (0 = number of nodes).
	MaxSeedsPerAd int
}

// GreedyResult reports what Greedy computed. Revenues are the estimator's
// view; neutral evaluation of the final allocation belongs to package eval.
type GreedyResult struct {
	Alloc      *Allocation
	EstRevenue []float64
	Iterations int
	// Evals counts marginal-revenue evaluations across all ads — the
	// quantity CELF laziness saves (ablation metric).
	Evals int
}

// Greedy implements Algorithm 1: starting from empty seed sets, repeatedly
// find the (user, ad) pair whose assignment yields the largest strict
// decrease in total regret, subject to attention bounds, until no pair
// improves. The revenue oracle is pluggable (Monte Carlo, exact, IRIE);
// CELF-style lazy evaluation keeps the number of oracle calls near-minimal
// while still returning the exact argmax pair each iteration.
func Greedy(inst *Instance, makeEst func(i int) AdEstimator, opts GreedyOptions) (*GreedyResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.G.N()
	h := len(inst.Ads)
	maxSeeds := opts.MaxSeedsPerAd
	if maxSeeds <= 0 {
		maxSeeds = n
	}

	ests := make([]AdEstimator, h)
	queues := make([]*celfQueue, h)
	for i := 0; i < h; i++ {
		ests[i] = makeEst(i)
		if ests[i] == nil {
			return nil, fmt.Errorf("core: estimator factory returned nil for ad %d", i)
		}
		queues[i] = newCELFQueue(n)
	}
	attention := NewAttention(n, inst.Kappa)
	eligible := func(u int32) bool { return attention.CanTake(u) }

	res := &GreedyResult{Alloc: NewAllocation(h), EstRevenue: make([]float64, h)}
	saturated := make([]bool, h)
	for {
		bestAd := -1
		var bestU int32
		bestDrop := 0.0
		for i := 0; i < h; i++ {
			if saturated[i] {
				continue
			}
			gap := inst.Ads[i].Budget - ests[i].Revenue()
			if gap <= 0 {
				// Budget met or overshot: every further seed strictly
				// increases |B−Π| (and pays λ), so the ad is done.
				saturated[i] = true
				continue
			}
			u, _, d, ok := queues[i].bestDrop(ests[i], gap, inst.Lambda, eligible)
			if !ok || d <= 0 {
				saturated[i] = true
				continue
			}
			if bestAd < 0 || d > bestDrop {
				bestAd, bestU, bestDrop = i, u, d
			}
		}
		if bestAd < 0 {
			break
		}
		ests[bestAd].Commit(bestU)
		queues[bestAd].remove(bestU)
		queues[bestAd].noteCommit()
		attention.Take(bestU)
		res.Alloc.Seeds[bestAd] = append(res.Alloc.Seeds[bestAd], bestU)
		res.Iterations++
		if len(res.Alloc.Seeds[bestAd]) >= maxSeeds {
			saturated[bestAd] = true
		}
	}
	for i := 0; i < h; i++ {
		res.EstRevenue[i] = ests[i].Revenue()
		res.Evals += queues[i].evals
		queues[i].release()
	}
	return res, nil
}

// EstRegret computes the total regret of a result according to the
// estimator's own revenue estimates (Eq. 4). Neutral MC evaluation lives in
// package eval; this is the algorithm-internal view used in logs and tests.
func (r *GreedyResult) EstRegret(inst *Instance) float64 {
	return RegretOver(inst, nil, nil, nil, r.EstRevenue, r.Alloc.Seeds)
}
