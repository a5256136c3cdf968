// The one greedy: Algorithm 2 (TIRM) with SelectBestNode (Algorithm 3) and
// UpdateEstimates (Algorithm 4), written once over a coverage backend.
//
// Everything that decides an allocation lives here — budget resolution,
// KPT → θ sizing, the candidate scan with RegretDrop, the cross-ad
// reduction and its tie-break order, attention, seed-target growth, the
// re-credit arithmetic, result assembly, phase timing and the explain
// hook. What a backend supplies is coverage over RR-sets and nothing else:
// the local backend (workspace.go) answers from an Index's own sample, the
// cluster backend (internal/shard) from integer coverage it mirrors from
// the shard that owns each ad. Both therefore make the same decisions by
// construction; what remains to argue for byte-identity is only that the
// mirrored integers are the owner's (DESIGN.md §7.2).

package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/rrset"
	"repro/internal/topic"
)

// Backend is the coverage state one selection run works over. The loop
// calls Pilot once, sizes every θ_j from the returned widths, then calls
// Open once; both are skipped when no ad is active. ads lists the active
// ads' instance positions in request order, and every per-ad slice is
// aligned with it. The slices passed in are the loop's pooled scratch: a
// backend must not retain them past the call. A backend serves one run.
type Backend interface {
	// Pilot fills out[i] with ad ads[i]'s pilot sample — the widths of
	// stream sets [0, want) in stream order, and how many sets were
	// held before this run touched the sample — and returns the number of
	// sets freshly drawn to get there.
	Pilot(ctx context.Context, ads []int, want int, out []Pilot) (fresh int64, err error)
	// Open fills out[i] with coverage state over ad ads[i]'s stream prefix
	// [0, thetas[i]). It returns the sets freshly drawn and, by
	// rrset.KernelID, how many underlying collections run on each kernel —
	// a report of the choice each collection made from its sample's
	// density, never an input.
	Open(ctx context.Context, ads, thetas []int, out []Coverage) (fresh int64, kernels [rrset.NumKernels]int, err error)
}

// Pilot is one ad's pilot sample as the loop sizes θ from it.
type Pilot struct {
	// Widths holds ω(R) for stream sets [0, want), in stream order
	// (KPT sums them as floats, so the order is part of byte-identity).
	// Read-only.
	Widths []int64
	// Have is the number of sets the sample held before this run — the
	// warm-start baseline behind TIRMResult.SetsReused.
	Have int
	// KPT, when non-nil, caches KPT over Widths; it must serve this ad's
	// stream alone. The local backend hands out its sample's, the cluster
	// backend each cached pilot's.
	KPT *KPTCache
}

// Coverage is one ad's coverage state R_j for one run. Scores are in
// set-mass units: a candidate's marginal revenue is cpe·n·δ(u)·score/θ,
// and Commit and Credit return the δ-scaled mass actually claimed (δ·score
// at commit time). Slices returned by TopNodes are valid until the next
// call.
type Coverage interface {
	// TopNodes returns up to k eligible candidates in decreasing score
	// order, ties in the backend's stable heap order.
	TopNodes(ctx context.Context, k int, eligible func(int32) bool) (nodes []int32, scores []float64, err error)
	// Commit claims u's residual coverage, retires u as a candidate, and
	// returns the claimed mass.
	Commit(ctx context.Context, u int32, delta float64) (mass float64, err error)
	// Grow extends the state from stream prefix [0, from) to [0, to) and
	// returns the sets freshly drawn.
	Grow(ctx context.Context, from, to int) (fresh int64, err error)
	// Credit claims seed's coverage among sets at stream position ≥
	// boundary (Algorithm 4) and returns the claimed mass.
	Credit(ctx context.Context, seed int32, delta float64, boundary int) (mass float64, err error)
	// CoveredMass returns the total set mass claimed so far.
	CoveredMass() float64
	// NumSets returns the stream prefix length the state covers.
	NumSets() int
	// MemBytes reports the state's resident footprint.
	MemBytes() int64
}

// selAd is the per-advertiser selection state of Algorithm 2. Slots live
// inside a pooled allocWorkspace and are recycled across requests (see
// selAd.reset); the cand* fields carry each round's per-ad best candidate
// to the cross-ad reduction.
type selAd struct {
	j         int // index into inst.Ads
	cpe       float64
	budget    float64
	ctps      topic.CTP
	cov       Coverage
	pilot     Pilot
	theta     int
	sTarget   int
	revenue   float64
	seeds     []int32
	seedMass  []float64 // δ-scaled claimed set mass per seed
	saturated bool
	// powMemo is the per-slot scratch for kptFromWidths cache misses (the
	// per-width Pow terms); retained across pooled runs.
	powMemo map[int64]float64
	// local is the local backend's coverage state for this slot, so a
	// single-node run's Coverage is a pointer into pooled memory.
	local covState

	candOK    bool // scan found a strictly regret-reducing candidate
	candU     int32
	candScore float64
	candMg    float64
	candDrop  float64
}

// delta returns the ad's click-through probability for u — kept as an
// interface call on the stored topic.CTP rather than a bound-method
// closure, which would allocate per ad per request.
func (a *selAd) delta(u int32) float64 { return a.ctps.At(u) }

// reset prepares a recycled slot for one run's ad.
func (a *selAd) reset(j int, cpe, budget float64, ctps topic.CTP) {
	a.j = j
	a.cpe = cpe
	a.budget = budget
	a.ctps = ctps
	a.cov = nil
	a.pilot = Pilot{}
	a.theta = 0
	a.sTarget = 1
	a.revenue = 0
	a.seeds = nil
	a.seedMass = a.seedMass[:0]
	a.saturated = false
	a.candOK = false
}

// kpt evaluates KPT(s) over the ad's pilot widths, through the pilot's
// cache when it has one.
func (a *selAd) kpt(s, n int, m int64) float64 {
	return a.pilot.KPT.at(a.pilot.Widths, s, n, m, a.powMemo)
}

// AllocateOver runs the greedy regret-minimization loop of Algorithm 2 for
// one request over any coverage backend. AllocateFromIndex is this over an
// index's own sample; the shard coordinator runs it over cluster-wide
// coverage sums. The transient selection state is recycled through
// Request.Pool (nil = the process-wide default) whatever the backend. An
// error from the backend ends the run and is returned unchanged, without
// an ObserveAllocation call. Request.Epoch is the caller's to enforce —
// only the owner of the backend knows which epoch it pinned.
func AllocateOver(ctx context.Context, inst *Instance, be Backend, req Request) (*TIRMResult, error) {
	pool := req.workspacePool()
	ws := pool.get()
	defer pool.put(ws)
	return ws.run(ctx, inst, be, req)
}

// run is the loop itself, on an acquired workspace.
func (ws *allocWorkspace) run(ctx context.Context, inst *Instance, be Backend, req Request) (*TIRMResult, error) {
	adIDs, lambda, kappa, err := req.Resolve(inst)
	if err != nil {
		return nil, err
	}
	opts := req.Opts.WithDefaults()
	g := inst.G
	n := g.N()
	m := g.M()
	h := len(inst.Ads)
	maxSeeds := opts.MaxSeedsPerAd
	if maxSeeds <= 0 {
		maxSeeds = n
	}

	res := &TIRMResult{
		Alloc:           NewAllocation(h),
		EstRevenue:      make([]float64, h),
		FinalTheta:      make([]int, h),
		FinalSeedTarget: make([]int, h),
	}
	ws.attention.reset(n, kappa)

	// Phase timing accumulates on the stack and is delivered in one call at
	// the end. The clock is read once per phase boundary — the end of one
	// phase is the start of the next — and every read is behind the nil
	// check, so an unobserved run never touches the clock.
	observer := req.Observer
	var timings PhaseTimings
	var phaseStart time.Time
	var explain ExplainObserver
	if observer != nil {
		phaseStart = time.Now()
		if req.Explain {
			explain, _ = observer.(ExplainObserver)
		}
	}
	endPhase := func(p AllocPhase) {
		now := time.Now()
		timings.Phase[p] += now.Sub(phaseStart)
		phaseStart = now
	}

	// Initialization (Algorithm 2 lines 1–3): s_j = 1, θ_j = L(s_j, ε),
	// with R_j the stream prefix instead of a private sample. Ads whose
	// residual budget is already ≤ 0 are fully served: they get empty seed
	// sets without paying for coverage state at all.
	ws.ads, ws.ids = ws.ads[:0], ws.ids[:0]
	for _, j := range adIDs {
		spec := inst.Ads[j]
		cpe, budget := spec.CPE, spec.Budget
		if req.Budgets != nil {
			budget = req.Budgets[j]
		}
		if req.CPEs != nil {
			cpe = req.CPEs[j]
		}
		if req.SpentBudget != nil {
			budget -= req.SpentBudget[j]
			if budget <= 0 {
				continue
			}
		}
		a := ws.slot(len(ws.ads))
		a.reset(j, cpe, budget, spec.Params.CTPs)
		ws.ads = append(ws.ads, a)
		ws.ids = append(ws.ids, j)
	}

	// Size θ from the pilot KPT estimate first, then open the coverage
	// state once at that size: a backend never replays growth its sample
	// has already absorbed.
	if len(ws.ads) > 0 {
		pilots, thetas, covs := ws.scratch(len(ws.ads))
		fresh, err := be.Pilot(ctx, ws.ids, opts.MinTheta, pilots)
		if err != nil {
			return nil, err
		}
		res.TotalSetsSampled += fresh
		for i, a := range ws.ads {
			a.pilot = pilots[i]
			a.theta = rrset.Theta(int64(n), 1, opts.Eps, opts.Ell, a.kpt(1, n, m), opts.MinTheta, opts.MaxTheta)
			thetas[i] = a.theta
		}
		fresh, res.KernelCounts, err = be.Open(ctx, ws.ids, thetas, covs)
		if err != nil {
			return nil, err
		}
		res.TotalSetsSampled += fresh
		for i, a := range ws.ads {
			a.cov = covs[i]
		}
	}
	if observer != nil {
		endPhase(PhaseEstimate)
	}

	// Main loop (Algorithm 2 lines 4–19): scan every unsaturated ad in
	// request order, keep the best candidate, commit it. A scan is a heap
	// peek — well under a microsecond — so handing it to another goroutine
	// costs more than running it (DESIGN.md §6.6). A cancelled run stops
	// between rounds, whether or not its backend reads ctx.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var best *selAd
		for _, a := range ws.ads {
			if a.saturated {
				continue
			}
			// SelectBestNode (Algorithm 3): max residual coverage among
			// eligible nodes, extended to the top CandidateDepth nodes
			// scored by regret drop (depth 1 = the paper). An ad with no
			// improving candidate saturates permanently: its candidate pool
			// only shrinks and Π only changes when it commits. Strict `>`
			// here and in the reduction keeps the first of equal
			// candidates, in heap order within an ad and request order
			// across ads.
			nodes, scores, err := a.cov.TopNodes(ctx, opts.CandidateDepth, ws.eligible)
			if err != nil {
				return nil, err
			}
			a.candOK = false
			for c, u := range nodes {
				mg := a.cpe * float64(n) * a.delta(u) * scores[c] / float64(a.theta)
				d := RegretDrop(a.budget-a.revenue, mg, lambda)
				if d <= 0 {
					continue
				}
				if !a.candOK || d > a.candDrop {
					a.candU, a.candScore, a.candMg, a.candDrop = u, scores[c], mg, d
				}
				a.candOK = true
			}
			if !a.candOK {
				a.saturated = true
				continue
			}
			if best == nil || a.candDrop > best.candDrop {
				best = a
			}
		}
		if observer != nil {
			endPhase(PhaseScan)
		}
		if best == nil {
			break // line 14: no (user, ad) pair reduces regret
		}

		// Commit (lines 10–12): allocate, record the claimed mass, and
		// retire it (hard mode removes covered sets; soft mode decays their
		// weights by 1−δ).
		a := best
		bestU, bestMg := a.candU, a.candMg
		delta := a.delta(bestU)
		mass, err := a.cov.Commit(ctx, bestU, delta)
		if err != nil {
			return nil, err
		}
		if diff := mass - delta*a.candScore; diff > 1e-6*(1+mass) || diff < -1e-6*(1+mass) {
			// Scan and commit disagree only when the coverage state is
			// broken (a bookkeeping bug, or shards that drifted apart).
			return nil, fmt.Errorf("core: ad %d node %d: commit claimed mass %g, scan scored %g — coverage state out of sync",
				a.j, bestU, mass, delta*a.candScore)
		}
		ws.attention.Take(bestU)
		a.seeds = append(a.seeds, bestU)
		a.seedMass = append(a.seedMass, mass)
		a.revenue += bestMg
		res.Iterations++
		if explain != nil {
			explain.ObserveCommit(CommitEvent{
				Round:    res.Iterations,
				Ad:       a.j,
				Node:     bestU,
				Gain:     bestMg,
				Residual: a.budget - a.revenue,
			})
		}
		if observer != nil {
			endPhase(PhaseCommit)
			timings.Rounds++
		}

		if len(a.seeds) >= maxSeeds {
			a.saturated = true
			continue
		}

		// Iterative seed-set-size estimation (lines 14–18): when |S_i|
		// reaches s_i, extend s_i by the regret still outstanding divided
		// by the latest seed's marginal revenue — a lower bound on the
		// seeds still needed, by submodularity — then grow θ_i to L(s_i, ε)
		// and re-calibrate existing seeds on the enlarged sample.
		if len(a.seeds) == a.sTarget {
			gap := a.budget - a.revenue
			if gap <= 0 || bestMg <= 0 {
				continue
			}
			growth := int(math.Floor(gap / bestMg))
			if growth < 1 {
				continue
			}
			a.sTarget += growth
			// The achieved spread n·(covered/θ) is itself a lower bound on
			// OPT_{s_i}; take the larger of the two (conservatively shrunk).
			achieved := float64(n) * a.cov.CoveredMass() / float64(a.theta) * (1 - opts.Eps)
			optLB := math.Max(a.kpt(a.sTarget, n, m), achieved)
			want := rrset.Theta(int64(n), int64(a.sTarget), opts.Eps, opts.Ell, optLB, opts.MinTheta, opts.MaxTheta)
			if want > a.theta {
				boundary := a.cov.NumSets()
				fresh, err := a.cov.Grow(ctx, a.theta, want)
				if err != nil {
					return nil, err
				}
				res.TotalSetsSampled += fresh
				a.theta = want
				// UpdateEstimates (Algorithm 4): credit existing seeds, in
				// selection order, with their coverage among the appended
				// sets (retiring the claimed mass as we go so nothing is
				// double-counted), then recompute Π against the new θ.
				a.revenue = 0
				for k, seed := range a.seeds {
					credit, err := a.cov.Credit(ctx, seed, a.delta(seed), boundary)
					if err != nil {
						return nil, err
					}
					a.seedMass[k] += credit
					a.revenue += a.cpe * float64(n) * a.seedMass[k] / float64(a.theta)
				}
				if observer != nil {
					endPhase(PhaseGrow)
				}
			}
		}
	}

	for _, a := range ws.ads {
		res.Alloc.Seeds[a.j] = a.seeds
		res.EstRevenue[a.j] = a.revenue
		res.FinalTheta[a.j] = a.theta
		res.FinalSeedTarget[a.j] = a.sTarget
		res.MemBytes += a.cov.MemBytes()
		res.SetsReused += int64(min(a.theta, a.pilot.Have))
	}
	if observer != nil {
		observer.ObserveAllocation(timings)
	}
	return res, nil
}
