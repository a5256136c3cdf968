// Package core implements the paper's primary contribution: the
// REGRET-MINIMIZATION problem (Problem 1), its greedy algorithm
// (Algorithm 1) with pluggable spread estimators, and the scalable
// Two-phase Iterative Regret Minimization algorithm TIRM (Algorithm 2).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/topic"
)

// Ad describes one advertiser's campaign: the monetary agreement (budget
// B_i, cost-per-engagement cpe(i)) plus the runtime form of its topic
// distribution (mixed edge probabilities and CTP vector, see topic.Mix).
type Ad struct {
	// Name labels the ad in reports.
	Name string
	// Budget is B_i: the maximum amount the advertiser will pay.
	Budget float64
	// CPE is cpe(i): the payment per click.
	CPE float64
	// Params carries the ad's mixed edge probabilities p^i and CTPs δ(·,i).
	Params topic.ItemParams
}

// AttentionBounds exposes the per-user attention bound κ_u: the maximum
// number of ads the host may promote directly to user u.
type AttentionBounds interface {
	At(u int32) int
}

// ConstKappa is a uniform attention bound (the paper's experiments use
// κ_u ∈ {1..5} for all users).
type ConstKappa int

// At implements AttentionBounds.
func (k ConstKappa) At(int32) int { return int(k) }

// VecKappa is a per-user attention bound vector.
type VecKappa []int32

// At implements AttentionBounds.
func (v VecKappa) At(u int32) int { return int(v[u]) }

// Instance is a full REGRET-MINIMIZATION problem (Problem 1).
type Instance struct {
	G      *graph.Graph
	Ads    []Ad
	Kappa  AttentionBounds
	Lambda float64 // seed-penalty λ ≥ 0
}

// Validate checks structural consistency of the instance.
func (inst *Instance) Validate() error {
	if inst.G == nil {
		return fmt.Errorf("core: instance has no graph")
	}
	if len(inst.Ads) == 0 {
		return fmt.Errorf("core: instance has no ads")
	}
	if inst.Kappa == nil {
		return fmt.Errorf("core: instance has no attention bounds")
	}
	if inst.Lambda < 0 || math.IsNaN(inst.Lambda) {
		return fmt.Errorf("core: λ = %v must be ≥ 0", inst.Lambda)
	}
	for i, ad := range inst.Ads {
		if err := validateAd(inst.G, i, ad); err != nil {
			return err
		}
	}
	return nil
}

// validateAd checks one advertiser's spec against the graph it will run on
// (shared by Instance.Validate and Index.AddAd); pos only labels errors.
func validateAd(g *graph.Graph, pos int, ad Ad) error {
	if ad.Budget <= 0 || math.IsNaN(ad.Budget) {
		return fmt.Errorf("core: ad %d (%s) budget %v must be > 0", pos, ad.Name, ad.Budget)
	}
	if ad.CPE <= 0 || math.IsNaN(ad.CPE) {
		return fmt.Errorf("core: ad %d (%s) CPE %v must be > 0", pos, ad.Name, ad.CPE)
	}
	if int64(len(ad.Params.Probs)) != g.M() {
		return fmt.Errorf("core: ad %d (%s) has %d edge probabilities, graph has %d edges",
			pos, ad.Name, len(ad.Params.Probs), g.M())
	}
	if ad.Params.CTPs == nil || ad.Params.CTPs.N() != g.N() {
		return fmt.Errorf("core: ad %d (%s) CTP vector does not cover %d nodes", pos, ad.Name, g.N())
	}
	return nil
}

// ErrAdExists is CloneAd's refusal of a name the campaign already uses. Its
// text completes CloneAd's message (`ad "x" already exists`); match it with
// errors.Is.
var ErrAdExists = errors.New("already exists")

// AdSpec describes an advertiser to add by template cloning — the body of
// POST /ads, and what a coordinator broadcasts to its shards. The new ad
// shares the mixed edge probabilities of the campaign's ad at position
// Template (datasets are generated, so arbitrary per-edge vectors have no
// request-sized representation) with its own name, budget and CPE, and —
// when CTP > 0 — a uniform click-through probability in place of the
// template's CTP vector.
type AdSpec struct {
	// Name labels the new ad (must be unique in the campaign).
	Name string `json:"name"`
	// Budget is the ad's budget B_i.
	Budget float64 `json:"budget"`
	// CPE is the ad's cost-per-engagement.
	CPE float64 `json:"cpe"`
	// CTP, when > 0, is a uniform click-through probability; 0 keeps the
	// template's CTP vector.
	CTP float64 `json:"ctp,omitempty"`
	// Template is the campaign position whose propagation profile the new
	// ad clones.
	Template int `json:"template,omitempty"`
}

// CloneAd builds the advertiser spec describes against inst. It is the one
// validation of such a request: the name must be non-empty and unused
// (ErrAdExists otherwise), Template in range, CTP in [0, 1], and the result
// a valid ad for Index.AddAd. A serving host, a coordinator's campaign
// mirror and every shard of a cluster call it on the same instance, so all
// of them construct the bit-identical advertiser.
func CloneAd(inst *Instance, spec AdSpec) (Ad, error) {
	if spec.Name == "" {
		return Ad{}, errors.New("ad name required")
	}
	for _, a := range inst.Ads {
		if a.Name == spec.Name {
			return Ad{}, fmt.Errorf("ad %q %w", spec.Name, ErrAdExists)
		}
	}
	if spec.Template < 0 || spec.Template >= len(inst.Ads) {
		return Ad{}, fmt.Errorf("template %d out of range (campaign has %d ads)", spec.Template, len(inst.Ads))
	}
	if spec.CTP < 0 || spec.CTP > 1 {
		return Ad{}, fmt.Errorf("ctp %g must be in [0, 1]", spec.CTP)
	}
	tmpl := inst.Ads[spec.Template]
	ctps := tmpl.Params.CTPs
	if spec.CTP > 0 {
		ctps = topic.ConstCTP{Nodes: inst.G.N(), P: spec.CTP}
	}
	ad := Ad{
		Name:   spec.Name,
		Budget: spec.Budget,
		CPE:    spec.CPE,
		Params: topic.ItemParams{Probs: tmpl.Params.Probs, CTPs: ctps},
	}
	return ad, validateAd(inst.G, len(inst.Ads), ad)
}

// TotalBudget returns Σ_i B_i, the denominator of the paper's
// regret-relative-to-budget reporting and of Theorems 2–4.
func (inst *Instance) TotalBudget() float64 {
	var b float64
	for _, ad := range inst.Ads {
		b += ad.Budget
	}
	return b
}

// Allocation is a seed-set assignment S = (S_1, …, S_h).
type Allocation struct {
	// Seeds[i] lists ad i's seed users in selection order.
	Seeds [][]int32
}

// NewAllocation returns an empty allocation for h ads.
func NewAllocation(h int) *Allocation {
	return &Allocation{Seeds: make([][]int32, h)}
}

// NumSeeds returns Σ_i |S_i|.
func (a *Allocation) NumSeeds() int {
	total := 0
	for _, s := range a.Seeds {
		total += len(s)
	}
	return total
}

// DistinctTargeted returns |∪_i S_i| — the "number of nodes targeted at
// least once" statistic of the paper's Table 3.
func (a *Allocation) DistinctTargeted() int {
	seen := map[int32]bool{}
	for _, s := range a.Seeds {
		for _, u := range s {
			seen[u] = true
		}
	}
	return len(seen)
}

// Validate checks that the allocation is valid for the instance: every
// seed is a real node, no ad seeds the same user twice, and no user exceeds
// her attention bound (Problem 1's validity condition).
func (a *Allocation) Validate(inst *Instance) error { return a.validate(inst, inst.Kappa) }

// CheckAllocation checks an allocation result against the request that
// produced it, whatever ran it (a single node, a cluster, a re-run):
//   - the allocation is valid (Validate) under the request's resolved
//     attention bounds κ;
//   - ads outside the request's resolved ad set hold no seeds;
//   - an ad whose residual budget — its budget (Request.Budgets or the
//     instance's) minus Request.SpentBudget — is ≤ 0 holds no seeds (Eq. 3
//     allows overshoot, so a spend above the budget is not checked);
//   - EstRevenue, FinalTheta and FinalSeedTarget hold one entry per ad,
//     every revenue finite.
func CheckAllocation(inst *Instance, req Request, res *TIRMResult) error {
	adIDs, _, kappa, err := req.Resolve(inst)
	if err != nil {
		return err
	}
	if err := res.Alloc.validate(inst, kappa); err != nil {
		return err
	}
	h := len(inst.Ads)
	if len(res.EstRevenue) != h || len(res.FinalTheta) != h || len(res.FinalSeedTarget) != h {
		return fmt.Errorf("core: result has %d revenues, %d θs and %d seed targets for %d ads",
			len(res.EstRevenue), len(res.FinalTheta), len(res.FinalSeedTarget), h)
	}
	active := make([]bool, h)
	for _, j := range adIDs {
		active[j] = true
	}
	for j, seeds := range res.Alloc.Seeds {
		if !active[j] && len(seeds) > 0 {
			return fmt.Errorf("core: ad %d is outside the request but holds %d seeds", j, len(seeds))
		}
		if req.SpentBudget != nil && len(seeds) > 0 {
			budget := inst.Ads[j].Budget
			if req.Budgets != nil {
				budget = req.Budgets[j]
			}
			if budget -= req.SpentBudget[j]; budget <= 0 {
				return fmt.Errorf("core: ad %d's residual budget is %v but it holds %d seeds", j, budget, len(seeds))
			}
		}
		if r := res.EstRevenue[j]; math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("core: ad %d's revenue estimate is %v", j, r)
		}
	}
	return nil
}

// validate is Validate under attention bounds kappa.
func (a *Allocation) validate(inst *Instance, kappa AttentionBounds) error {
	if len(a.Seeds) != len(inst.Ads) {
		return fmt.Errorf("core: allocation covers %d ads, instance has %d", len(a.Seeds), len(inst.Ads))
	}
	n := int32(inst.G.N())
	counts := make(map[int32]int)
	for i, s := range a.Seeds {
		inAd := make(map[int32]bool, len(s))
		for _, u := range s {
			if u < 0 || u >= n {
				return fmt.Errorf("core: ad %d seeds out-of-range node %d", i, u)
			}
			if inAd[u] {
				return fmt.Errorf("core: ad %d seeds node %d twice", i, u)
			}
			inAd[u] = true
			counts[u]++
		}
	}
	for u, c := range counts {
		if c > kappa.At(u) {
			return fmt.Errorf("core: node %d promoted %d ads, attention bound is %d", u, c, kappa.At(u))
		}
	}
	return nil
}

// RegretTerm computes one advertiser's regret (Eq. 3):
// |B − Π| + λ·|S|.
func RegretTerm(budget, revenue, lambda float64, numSeeds int) float64 {
	return math.Abs(budget-revenue) + lambda*float64(numSeeds)
}

// RegretDrop computes the decrease in R_i from adding a seed with marginal
// revenue mg when the current budget gap is gap = B_i − Π_i(S_i):
//
//	drop = |gap| − |gap − mg| − λ
//
// Positive iff the addition strictly reduces regret. For gap > 0 the drop
// equals min(mg, 2·gap − mg) − λ, the quantity bounded in Theorem 2's
// Claims 1–2; for gap ≤ 0 (budget already met) it is −mg − λ ≤ −λ, so an
// overshooting ad can never accept another seed.
func RegretDrop(gap, mg, lambda float64) float64 {
	return math.Abs(gap) - math.Abs(gap-mg) - lambda
}

// Attention tracks how many ads each user has been allocated and enforces
// κ_u. Shared by every allocation algorithm in the repository.
type Attention struct {
	counts []int32
	bounds AttentionBounds
}

// NewAttention creates a tracker for n users.
func NewAttention(n int, bounds AttentionBounds) *Attention {
	return &Attention{counts: make([]int32, n), bounds: bounds}
}

// CanTake reports whether u can accept one more promoted ad.
func (at *Attention) CanTake(u int32) bool {
	return int(at.counts[u]) < at.bounds.At(u)
}

// Take records one more promoted ad for u. It panics if the bound is
// already reached (callers must check CanTake).
func (at *Attention) Take(u int32) {
	if !at.CanTake(u) {
		panic(fmt.Sprintf("core: attention bound of node %d exceeded", u))
	}
	at.counts[u]++
}

// Count returns the number of ads currently promoted to u.
func (at *Attention) Count(u int32) int { return int(at.counts[u]) }
