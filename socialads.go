// Package socialads is a from-scratch Go implementation of
//
//	"Viral Marketing Meets Social Advertising: Ad Allocation with Minimum
//	Regret" — Aslay, Lu, Bonchi, Goyal, Lakshmanan. PVLDB 8(7), 2015.
//
// The host of a social platform must allocate promoted posts (ads) to
// users. Ads propagate virally under a topic-aware independent-cascade
// model with click-through probabilities (TIC-CTP); every advertiser pays
// cost-per-engagement up to a budget B_i; users tolerate at most κ_u
// promoted ads. The host wants every campaign's expected revenue to land
// exactly on its budget: both undershooting (lost revenue) and overshooting
// (free service) cause regret
//
//	R_i(S_i) = |B_i − Π_i(S_i)| + λ·|S_i|,     R(S) = Σ_i R_i(S_i).
//
// REGRET-MINIMIZATION is NP-hard to approximate within any factor
// (Theorem 1); this package provides the paper's greedy algorithm with
// budget-relative guarantees (Algorithm 1, Theorems 2–4) and its scalable
// RR-set instantiation TIRM (Algorithm 2), plus every baseline the paper
// evaluates (MYOPIC, MYOPIC+, GREEDY-IRIE), the TIM influence-maximization
// substrate, Monte Carlo and exact evaluators, and synthetic analogues of
// the four evaluation datasets.
//
// Quick start:
//
//	inst := socialads.NewFlixster(socialads.DatasetOptions{Seed: 1, Scale: 0.05})
//	res, err := socialads.AllocateTIRM(inst, 42, socialads.TIRMOptions{Eps: 0.2})
//	if err != nil { ... }
//	out := socialads.Evaluate(inst, res.Alloc, 10000, 7)
//	fmt.Printf("regret: %.1f (%.1f%% of budget)\n", out.TotalRegret, 100*out.RegretOverBudget)
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package socialads

import (
	"io"

	"repro/internal/bandit"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/irie"
	"repro/internal/rrset"
	"repro/internal/sim"
	"repro/internal/tim"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// Core problem types (see internal/core for full documentation).
type (
	// Graph is the directed social graph; arc (u,v) means v follows u.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and freezes them into a Graph.
	GraphBuilder = graph.Builder
	// Instance is a full REGRET-MINIMIZATION problem (Problem 1).
	Instance = core.Instance
	// Ad is one advertiser: budget, CPE, and propagation parameters.
	Ad = core.Ad
	// ItemParams carries an ad's mixed edge probabilities and CTPs.
	ItemParams = topic.ItemParams
	// TopicDist is a distribution γ_i over the K latent topics.
	TopicDist = topic.Dist
	// TopicModel stores per-topic edge probabilities and mixes them (Eq. 1).
	TopicModel = topic.Model
	// Allocation is a seed-set assignment S = (S_1, …, S_h).
	Allocation = core.Allocation
	// AttentionBounds exposes per-user attention bounds κ_u.
	AttentionBounds = core.AttentionBounds
	// ConstKappa is a uniform attention bound.
	ConstKappa = core.ConstKappa
	// VecKappa is a per-user attention bound vector.
	VecKappa = core.VecKappa

	// TIRMOptions configures the scalable allocator (Algorithm 2).
	TIRMOptions = core.TIRMOptions
	// TIRMResult reports TIRM's allocation and sampling statistics.
	TIRMResult = core.TIRMResult
	// Index is a reusable per-ad RR-set sample: build once, allocate many
	// times (DESIGN.md §6).
	Index = core.Index
	// AllocRequest parameterizes one selection run against an Index.
	AllocRequest = core.Request
	// AllocWorkspacePool recycles the per-request selection state of
	// AllocateFromIndex (set it as AllocRequest.Pool); reuse makes warm
	// allocations nearly allocation-free without changing their results.
	AllocWorkspacePool = core.WorkspacePool
	// AllocBatchResult is one request's outcome in an AllocateBatch call:
	// exactly one of Res or Err is set.
	AllocBatchResult = core.BatchResult
	// AllocPhase names one phase of a selection run — estimation, CELF
	// scan, commit, or sample growth (see AllocObserver).
	AllocPhase = core.AllocPhase
	// AllocPhaseTimings reports per-phase wall time and the round count of
	// one selection run.
	AllocPhaseTimings = core.PhaseTimings
	// AllocObserver receives per-phase timings after each selection run
	// (set one as AllocRequest.Observer); a nil observer costs nothing —
	// no clocks are read and the allocation result is unchanged either way.
	AllocObserver = core.AllocObserver
	// AllocCommitEvent describes one committed selection round — the
	// chosen ad, seed node, marginal gain, and the ad's residual budget
	// afterwards (see AllocExplainObserver).
	AllocCommitEvent = core.CommitEvent
	// AllocExplainObserver extends AllocObserver with a per-round commit
	// callback; it fires only when AllocRequest.Explain is set and the
	// request's observer implements it, and never changes the
	// allocation.
	AllocExplainObserver = core.ExplainObserver
	// GreedyOptions configures Algorithm 1.
	GreedyOptions = core.GreedyOptions
	// GreedyResult reports Algorithm 1's allocation.
	GreedyResult = core.GreedyResult
	// IRIEOptions tunes the GREEDY-IRIE baseline's spread heuristic.
	IRIEOptions = irie.Options

	// Outcome is a neutral Monte Carlo score of an allocation.
	Outcome = eval.Outcome
	// AdOutcome is one advertiser's share of an Outcome.
	AdOutcome = eval.AdOutcome

	// DatasetOptions parameterizes the synthetic dataset analogues.
	DatasetOptions = gen.Options
)

// Phases of a selection run, in execution order; index
// AllocPhaseTimings.Phase with them (see AllocObserver).
const (
	// PhaseEstimate is KPT estimation, θ sizing, and fresh coverage sums.
	PhaseEstimate = core.PhaseEstimate
	// PhaseScan is the CELF marginal-gain scans.
	PhaseScan = core.PhaseScan
	// PhaseCommit is seed commits and coverage updates.
	PhaseCommit = core.PhaseCommit
	// PhaseGrow is on-demand sample growth plus re-credit.
	PhaseGrow = core.PhaseGrow
)

// NewGraphBuilder creates a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// AllocateTIRM runs Two-phase Iterative Regret Minimization (Algorithm 2),
// the paper's scalable algorithm, with the given RNG seed.
func AllocateTIRM(inst *Instance, seed uint64, opts TIRMOptions) (*TIRMResult, error) {
	return core.TIRM(inst, xrand.New(seed), opts)
}

// BuildIndex builds the reusable per-ad RR-set index — the expensive half
// of TIRM. Hold on to it and call AllocateFromIndex for every re-allocation
// (new budgets, λ, κ, ad subsets): the sampling cost is paid once and the
// allocation for a fixed seed is identical to AllocateTIRM's. opts controls
// only how much is presampled, never the sample content.
func BuildIndex(inst *Instance, seed uint64, opts TIRMOptions) (*Index, error) {
	return core.BuildIndex(inst, seed, opts)
}

// AllocateFromIndex runs TIRM's greedy selection stage against a prebuilt
// index. Safe for concurrent use; the index grows on demand if the request
// needs a larger sample than any before it. Transient selection state is
// recycled through AllocRequest.Pool (a process-wide default when nil), so
// steady-state warm calls allocate almost nothing; long-lived hosts
// serving many indexes should dedicate an AllocWorkspacePool per index,
// as internal/serve does.
func AllocateFromIndex(idx *Index, req AllocRequest) (*TIRMResult, error) {
	return core.AllocateFromIndex(idx, req)
}

// AllocateBatch evaluates many selection requests against one index with
// every request pinned to the same campaign epoch, fanning out under the
// process worker budget. Each result is byte-identical to the sequential
// AllocateFromIndex call for the same request, and requests fail
// independently — one bad request never poisons its siblings.
func AllocateBatch(idx *Index, reqs []AllocRequest) []AllocBatchResult {
	return core.AllocateBatch(idx, reqs)
}

// Campaign-lifecycle simulation types (see internal/sim): advertisers join
// and leave, engagements deplete budgets, and the host periodically
// re-allocates against the residual budgets B_i − spent_i.
type (
	// LifecycleConfig shapes a lifecycle simulation run.
	LifecycleConfig = sim.Config
	// LifecycleResult is a full lifecycle trace (regret over time).
	LifecycleResult = sim.Result
	// LifecycleRound is one round of a lifecycle trace.
	LifecycleRound = sim.RoundReport
	// AdFate is one advertiser's end-of-run lifecycle bookkeeping.
	AdFate = sim.AdFate
)

// RunLifecycle simulates a campaign-lifecycle workload over inst's
// advertisers: the first LifecycleConfig.InitialAds are live at round 1,
// the rest arrive as the deterministic event stream fires, engagements
// deplete budgets, and the index (Index.AddAd / Index.RemoveAd /
// AllocRequest.SpentBudget) re-allocates along the way. Deterministic for
// a fixed (inst, seed, cfg); see examples/lifecycle.
func RunLifecycle(inst *Instance, seed uint64, cfg LifecycleConfig) (*LifecycleResult, error) {
	return sim.Run(inst, seed, cfg)
}

// Online-CPE-learning types (see internal/bandit and DESIGN.md §8): the
// allocator treats each ad's cost-per-engagement as known, but in
// production the engagement rate behind it must be learned from click
// feedback. An estimator maintains per-ad counts and turns them into
// effective-CPE overrides for AllocRequest.CPEs; a nil estimator (or one
// with no feedback) leaves allocations byte-identical to today's.
type (
	// EngagementEstimator learns per-ad engagement rates from feedback
	// events and scores ads with a bandit policy index in (0, 1].
	EngagementEstimator = bandit.Estimator
	// EngagementEvent is one batch of impression/click feedback for an ad.
	EngagementEvent = bandit.Event
	// EstimatorState is an integer-only estimator snapshot: the exact
	// Snapshot/RestoreEstimator format.
	EstimatorState = bandit.State
)

// Estimator policies accepted by NewEstimator (and LifecycleConfig.Bandit).
const (
	// PolicyUCB is UCB1: optimism proportional to count uncertainty.
	PolicyUCB = bandit.PolicyUCB
	// PolicyThompson is seeded, state-free Thompson sampling.
	PolicyThompson = bandit.PolicyThompson
	// PolicyFrozen never updates its index — the regret-harness baseline.
	PolicyFrozen = bandit.PolicyFrozen
)

// NewEstimator creates an engagement estimator for the given policy
// ("ucb", "thompson", or "frozen"). The seed drives Thompson sampling;
// identical (policy, seed, feedback) always yields identical overrides.
func NewEstimator(policy string, seed uint64) (EngagementEstimator, error) {
	return bandit.New(policy, seed)
}

// RestoreEstimator rebuilds an estimator from a snapshot, exactly: the
// result is indistinguishable from the estimator that produced the state.
func RestoreEstimator(st EstimatorState) (EngagementEstimator, error) {
	return bandit.Restore(st)
}

// SaveIndex persists an index in the binary snapshot format; LoadIndex
// restores it for the same instance (graph + probabilities must match).
func SaveIndex(w io.Writer, idx *Index) error { return idx.WriteSnapshot(w) }

// LoadIndex restores an index saved with SaveIndex. Allocations on the
// loaded index are identical to allocations on the original.
func LoadIndex(inst *Instance, r io.Reader) (*Index, error) {
	return core.LoadIndexSnapshot(inst, r)
}

// AllocateGreedyMC runs Algorithm 1 with Monte Carlo spread estimation
// (`runs` cascades per evaluation, CELF-lazified). Intended for small
// graphs; use AllocateTIRM at scale.
func AllocateGreedyMC(inst *Instance, runs int, seed uint64, opts GreedyOptions) (*GreedyResult, error) {
	return core.Greedy(inst, core.NewMCFactory(inst, runs, xrand.New(seed)), opts)
}

// AllocateGreedyExact runs Algorithm 1 with exact possible-world
// enumeration — usable only on graphs with at most
// diffusion.MaxExactEdges (20) edges; it is the ground-truth allocator for
// toy instances such as Fig1Instance.
func AllocateGreedyExact(inst *Instance, opts GreedyOptions) (*GreedyResult, error) {
	return core.Greedy(inst, core.NewExactFactory(inst), opts)
}

// AllocateGreedyIRIE runs the paper's strongest baseline: Algorithm 1 with
// the IRIE influence-rank heuristic as spread oracle.
func AllocateGreedyIRIE(inst *Instance, opts IRIEOptions, gopts GreedyOptions) (*GreedyResult, error) {
	return core.Greedy(inst, func(i int) core.AdEstimator {
		ad := inst.Ads[i]
		return irie.NewEstimator(inst.G, ad.Params.Probs, ad.Params.CTPs, ad.CPE, opts)
	}, gopts)
}

// AllocateMyopic runs the MYOPIC baseline: every user gets her κ_u most
// relevant ads by δ(u,i)·cpe(i); budgets and virality are ignored.
func AllocateMyopic(inst *Instance) *Allocation { return baselines.Myopic(inst) }

// AllocateMyopicPlus runs MYOPIC+: budget-aware but virality-blind seed
// filling in CTP order, round-robin across ads.
func AllocateMyopicPlus(inst *Instance) *Allocation { return baselines.MyopicPlus(inst) }

// Evaluate scores an allocation with `runs` Monte Carlo cascades per ad
// (the paper uses 10000). Deterministic given seed.
func Evaluate(inst *Instance, alloc *Allocation, runs int, seed uint64) *Outcome {
	return eval.Evaluate(inst, alloc, runs, xrand.New(seed))
}

// Spread estimates the expected TIC-CTP spread σ_i(S) of a seed set for
// one ad with `runs` parallel Monte Carlo cascades.
func Spread(g *Graph, params ItemParams, seeds []int32, runs int, seed uint64) float64 {
	sim := diffusion.NewSimulator(g, params)
	return sim.SpreadMCParallel(seeds, runs, xrand.New(seed))
}

// InfluenceMaximizationResult mirrors tim.Result for the public API.
type InfluenceMaximizationResult = tim.Result

// MaximizeInfluence runs the TIM substrate standalone: select up to k
// seeds maximizing expected IC spread for the given edge probabilities.
func MaximizeInfluence(g *Graph, probs []float32, k int, seed uint64) InfluenceMaximizationResult {
	s := rrset.NewSampler(g, probs, nil)
	return tim.Maximize(s, k, xrand.New(seed), tim.Options{})
}

// Dataset analogues (see internal/gen and DESIGN.md §4 for the
// substitutions relative to the paper's real datasets).
var (
	// NewFlixster builds the FLIXSTER analogue (quality experiments).
	NewFlixster = gen.Flixster
	// NewEpinions builds the EPINIONS analogue (quality experiments).
	NewEpinions = gen.Epinions
	// NewDBLP builds the DBLP analogue (scalability experiments).
	NewDBLP = gen.DBLP
	// NewLiveJournal builds the LIVEJOURNAL analogue (scalability).
	NewLiveJournal = gen.LiveJournal
	// Fig1Instance builds the paper's running example.
	Fig1Instance = gen.Fig1Instance
	// Fig1AllocationA is the CTP-maximizing allocation of Figure 1.
	Fig1AllocationA = gen.Fig1AllocationA
	// Fig1AllocationB is the virality-aware allocation of Figure 1.
	Fig1AllocationB = gen.Fig1AllocationB
)

// NewTopicModel creates a K-topic model over m edges; NewTopicDist
// validates a distribution; ConcentratedTopic returns the paper's
// experimental γ (mass 0.91 on one topic).
func NewTopicModel(k int, m int64) *TopicModel { return topic.NewModel(k, m) }

// NewTopicDist validates and returns a topic distribution.
func NewTopicDist(weights []float64) (TopicDist, error) { return topic.NewDist(weights) }

// ConcentratedTopic returns the paper's experimental ad distribution.
func ConcentratedTopic(k, z int, main float64) TopicDist { return topic.Concentrated(k, z, main) }

// ConstCTP returns a uniform click-through-probability vector.
func ConstCTP(n int, p float64) topic.CTP { return topic.ConstCTP{Nodes: n, P: p} }

// VecCTP validates a per-user click-through-probability vector.
func VecCTP(p []float32) (topic.CTP, error) { return topic.NewVecCTP(p) }

// RegretTerm computes one advertiser's regret |B − Π| + λ·|S| (Eq. 3).
func RegretTerm(budget, revenue, lambda float64, numSeeds int) float64 {
	return core.RegretTerm(budget, revenue, lambda, numSeeds)
}
