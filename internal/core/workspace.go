// Workspace pooling and bounded parallelism for the warm allocation path.
//
// AllocateFromIndex is the per-request hot path of internal/serve and the
// inner loop of internal/sim: the index already holds every RR-set, so a
// request is pure selection — and at serving rates the transient state a
// run needs (per-ad coverage collections, attention counters, candidate
// buffers) must be recycled, not reallocated. A WorkspacePool hands each
// run an allocWorkspace whose arrays survive across requests; the runs
// reinitialize them with memclr-style loops and return them on exit.
//
// Per-ad set-up (coverage-state initialization, kernel choice, heap build)
// is the only part of a run that fans out across CPUs, through
// rrset.ParallelFor: it touches only that ad's state, so the allocation a
// parallel run produces is byte-identical to the serial one (pinned by
// TestAllocateFromIndexParallelAndPooled and the golden tests). The greedy
// rounds themselves run on the caller's goroutine — see DESIGN.md §6.6.

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/rrset"
	"repro/internal/topic"
)

// WorkspacePool recycles the transient per-request state of
// AllocateFromIndex (coverage workspaces, attention counters, candidate
// and scratch buffers) via a sync.Pool, making warm allocations against a
// grown index nearly allocation-free. The zero value is ready to use; a
// pool is safe for concurrent use and can serve any mix of requests and
// indexes, though hit rates (and array-shape reuse) are best when a pool
// is dedicated to one index — internal/serve attaches one to each cache
// entry. Requests that do not name a pool share a process-wide default.
type WorkspacePool struct {
	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
}

// defaultWorkspacePool serves requests whose Request.Pool is nil, so every
// caller — TIRM, the sim loop, CLI one-shots — gets workspace reuse by
// default.
var defaultWorkspacePool WorkspacePool

// Stats reports how many workspace acquisitions were served from the pool
// (hits) versus freshly constructed (misses). Misses after warm-up mean
// the GC reclaimed parked workspaces or concurrency exceeded the pool's
// retained size.
func (p *WorkspacePool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// get acquires a workspace, constructing one only when the pool is empty.
func (p *WorkspacePool) get() *allocWorkspace {
	if ws, ok := p.pool.Get().(*allocWorkspace); ok {
		p.hits.Add(1)
		return ws
	}
	p.misses.Add(1)
	return newAllocWorkspace()
}

// put parks a workspace for reuse after dropping every reference it holds
// into index-owned memory (so an idle pool never pins a retired index's
// arenas live).
func (p *WorkspacePool) put(ws *allocWorkspace) {
	ws.release()
	p.pool.Put(ws)
}

// allocWorkspace is the recycled state of one AllocateFromIndex run: one
// selAd slot (with its rrset.Workspace) per ad the run touches, the
// attention tracker, and the list of ads the main loop iterates over.
// The eligibility closure is built once — it reads the attention tracker
// through a stable pointer — so the hot loop never materializes closures.
type allocWorkspace struct {
	slots     []*selAd
	ads       []*selAd // active ads this run, in request ad order
	attention *Attention
	eligible  func(int32) bool
}

func newAllocWorkspace() *allocWorkspace {
	w := &allocWorkspace{attention: &Attention{}}
	w.eligible = func(u int32) bool { return w.attention.CanTake(u) }
	return w
}

// slot returns the i-th persistent per-ad slot, growing the slot list on
// first use. Slots keep their buffers (coverage workspaces, candidate
// arrays, seed-mass backing) across runs.
func (w *allocWorkspace) slot(i int) *selAd {
	for len(w.slots) <= i {
		w.slots = append(w.slots, &selAd{
			ws:      rrset.NewWorkspace(),
			powMemo: make(map[int64]float64, 128),
		})
	}
	return w.slots[i]
}

// release drops index references (sample handles, CTP vectors, width
// slices, coverage views) while keeping every workspace-owned array.
func (w *allocWorkspace) release() {
	for _, a := range w.slots {
		a.src = nil
		a.ctps = nil
		a.widths = nil
		a.seeds = nil // owned by the returned result now
		a.col.hard = nil
		a.col.soft = nil
		a.ws.Release()
	}
	w.ads = w.ads[:0]
	w.attention.bounds = nil
}

// reset prepares the attention tracker for a fresh run over n users —
// NewAttention semantics on recycled storage.
func (at *Attention) reset(n int, bounds AttentionBounds) {
	if cap(at.counts) < n {
		at.counts = make([]int32, n)
	}
	at.counts = at.counts[:n]
	for i := range at.counts {
		at.counts[i] = 0
	}
	at.bounds = bounds
}

// covState dispatches one ad's coverage bookkeeping to the active mode:
// the paper's hard set removal (rrset.Collection) or the TIRM-W soft
// weights (rrset.WeightedCollection). It replaces an interface pair so the
// hot path pays no boxing, and it owns the candidate result buffers that
// make the per-iteration TopNodes scan allocation-free. Scores are in "set
// mass" units: a candidate's marginal revenue is cpe·n·δ(u)·score/θ, and
// commit/creditFrom return the δ-scaled mass actually claimed (= δ·score
// at commit time).
type covState struct {
	hard   *rrset.Collection
	soft   *rrset.WeightedCollection
	nodes  []int32
	covs   []int
	scores []float64
}

// topNodes returns up to k eligible candidates in decreasing score order,
// reusing the state's buffers; the results are valid until the next call.
func (cs *covState) topNodes(k int, eligible func(int32) bool) ([]int32, []float64) {
	if cs.hard != nil {
		cs.nodes, cs.covs = cs.hard.TopNodesInto(k, eligible, cs.nodes, cs.covs)
		cs.scores = cs.scores[:0]
		for _, c := range cs.covs {
			cs.scores = append(cs.scores, float64(c))
		}
		return cs.nodes, cs.scores
	}
	cs.nodes, cs.scores = cs.soft.TopNodesInto(k, eligible, cs.nodes, cs.scores)
	return cs.nodes, cs.scores
}

// syncHeap builds the candidate heap now instead of in the first scan.
func (cs *covState) syncHeap() {
	if cs.hard != nil {
		cs.hard.SyncHeap()
		return
	}
	cs.soft.SyncHeap()
}

// addFamily feeds freshly sampled sets to the coverage state.
func (cs *covState) addFamily(v rrset.FamilyView) {
	if cs.hard != nil {
		cs.hard.AddFamily(v)
		return
	}
	cs.soft.AddFamily(v)
}

// numSets returns the number of sets the state covers.
func (cs *covState) numSets() int {
	if cs.hard != nil {
		return cs.hard.NumSets()
	}
	return cs.soft.NumSets()
}

// commit claims u's residual coverage mass (hard: remove covered sets;
// soft: decay weights by 1−δ).
func (cs *covState) commit(u int32, delta float64) float64 {
	if cs.hard != nil {
		return delta * float64(cs.hard.CoverNode(u))
	}
	return cs.soft.Commit(u, delta)
}

// creditFrom is commit restricted to sets with id ≥ firstID (Algorithm 4).
func (cs *covState) creditFrom(u int32, delta float64, firstID int) float64 {
	if cs.hard != nil {
		return delta * float64(cs.hard.CountAndCoverFrom(u, firstID))
	}
	return cs.soft.CreditFrom(u, delta, firstID)
}

// coveredMass returns the total claimed set mass.
func (cs *covState) coveredMass() float64 {
	if cs.hard != nil {
		return float64(cs.hard.NumCovered())
	}
	return cs.soft.CoveredMass()
}

// drop permanently removes a node from candidate consideration.
func (cs *covState) drop(u int32) {
	if cs.hard != nil {
		cs.hard.Drop(u)
		return
	}
	cs.soft.Drop(u)
}

// memBytes reports the coverage state's exact footprint.
func (cs *covState) memBytes() int64 {
	if cs.hard != nil {
		return cs.hard.MemBytes()
	}
	return cs.soft.MemBytes()
}

// delta returns the ad's click-through probability for u — kept as an
// interface call on the stored topic.CTP rather than a bound-method
// closure, which would allocate per ad per request.
func (a *selAd) delta(u int32) float64 { return a.ctps.At(u) }

// reset prepares a recycled slot for one run's ad.
func (a *selAd) reset(j int, cpe, budget float64, ctps topic.CTP, src *adSample) {
	a.j = j
	a.cpe = cpe
	a.budget = budget
	a.ctps = ctps
	a.src = src
	a.haveBefore = src.size()
	a.widths = nil
	a.theta = 0
	a.sTarget = 1
	a.fresh = 0
	a.revenue = 0
	a.seeds = nil
	a.seedMass = a.seedMass[:0]
	a.saturated = false
	a.candOK = false
	a.kernel = rrset.KernelSparse
}
