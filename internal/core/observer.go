// Allocation phase observability: an optional per-request hook that
// reports where an AllocateFromIndex run spent its time, phase by phase.
// The hook is pull-free and allocation-free — the run accumulates plain
// durations on its own stack and makes exactly one ObserveAllocation call
// at the end, reading the clock once per phase boundary (the end of one
// phase is the start of the next: two reads a round) — and a nil observer
// costs nothing: every time.Now() on the hot path is guarded by the nil
// check, so the warm-path allocation count and the allocation bytes are
// untouched (the golden byte-identity and allocs/op benchmarks both cover
// this).

package core

import "time"

// AllocPhase names one phase of the Algorithm 2 selection loop for
// per-phase timing. The phases partition a run's wall time minus result
// assembly: estimation (θ sizing and coverage-state setup), candidate
// scanning, seed commits, and θ growth with seed re-crediting. Each phase
// runs from the previous boundary, so the few instructions between a
// commit and the next scan (or growth) count towards what follows.
type AllocPhase int

// The allocation phases, in the order a run first enters them.
const (
	// PhaseEstimate covers setup: per-ad budget resolution, the pilot KPT
	// estimate, θ sizing (Eq. 5), and coverage-state initialization.
	PhaseEstimate AllocPhase = iota
	// PhaseScan covers the per-ad candidate scans (Algorithm 3) and the
	// cross-ad reduction, summed over all rounds.
	PhaseScan
	// PhaseCommit covers seed commits: claimed-mass retirement, attention
	// bookkeeping, the scan/commit consistency check, and on explain runs
	// the ObserveCommit callback.
	PhaseCommit
	// PhaseGrow covers θ growth past the stored prefix and the
	// UpdateEstimates re-crediting of existing seeds (Algorithm 4).
	PhaseGrow
	// NumAllocPhases is the number of phases; valid AllocPhase values are
	// [0, NumAllocPhases).
	NumAllocPhases
)

// allocPhaseNames indexes AllocPhase.String; keep in AllocPhase order.
var allocPhaseNames = [NumAllocPhases]string{"estimate", "scan", "commit", "grow"}

// String returns the phase's stable lowercase label (the value used as the
// phase= metric label by instrumented hosts).
func (p AllocPhase) String() string {
	if p < 0 || p >= NumAllocPhases {
		return "unknown"
	}
	return allocPhaseNames[p]
}

// PhaseTimings is the per-run timing breakdown delivered to an
// AllocObserver: cumulative wall time per phase plus the number of
// selection rounds (committed seeds) the run took.
type PhaseTimings struct {
	// Phase holds cumulative wall time per AllocPhase.
	Phase [NumAllocPhases]time.Duration
	// Rounds counts main-loop iterations that committed a seed; it equals
	// TIRMResult.Iterations for the same run.
	Rounds int
}

// AllocObserver receives one PhaseTimings per completed allocation run.
// Implementations must be safe for concurrent calls when the observer is
// shared across concurrent allocations (internal/serve shares one per
// server). A nil Request.Observer disables timing entirely.
type AllocObserver interface {
	// ObserveAllocation is called once, after the run's result is
	// assembled but before AllocateFromIndex returns.
	ObserveAllocation(PhaseTimings)
}

// CommitEvent is one committed selection round — the explain record of
// which (ad, node) pair the regret-minimizing greedy chose and what it
// was worth at that moment. Events are emitted in commit order, so a
// run's event sequence replays its entire decision trace.
type CommitEvent struct {
	// Round is the 1-based selection round (equals Rounds so far).
	Round int
	// Ad is the committed ad's instance index.
	Ad int
	// Node is the committed seed node.
	Node int32
	// Gain is the seed's marginal revenue at commit time (the CELF
	// marginal gain that won the cross-ad reduction).
	Gain float64
	// Residual is the ad's remaining budget after this commit
	// (B_i − revenue so far): how far the ad still is from saturation.
	Residual float64
}

// ExplainObserver is an AllocObserver that also wants the per-round
// decision trace. Commit events fire only when Request.Explain is set
// AND the observer implements this interface — the plain timing path
// stays a single pointer test per phase boundary, and explain never
// mutates the run (allocations are byte-identical with it on or off).
type ExplainObserver interface {
	AllocObserver
	// ObserveCommit is called once per committed seed, between the
	// commit bookkeeping and the next scan, in round order.
	ObserveCommit(CommitEvent)
}
