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
// Per-ad set-up (coverage-state initialization, kernel choice, heap fill)
// is the only part of a run that fans out across CPUs, through
// rrset.ParallelFor: it touches only that ad's state, so the allocation a
// parallel run produces is byte-identical to the serial one (pinned by
// TestAllocateFromIndexParallelAndPooled and the golden tests). The greedy
// rounds themselves run on the caller's goroutine — see DESIGN.md §6.6.

package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/rrset"
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

// workspacePool returns the pool this request recycles through.
func (req *Request) workspacePool() *WorkspacePool {
	if req.Pool != nil {
		return req.Pool
	}
	return &defaultWorkspacePool
}

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

// allocWorkspace is the recycled state of one selection run: one selAd slot
// per ad the run touches, the attention tracker, the list of ads the main
// loop iterates over, and the per-request scratch the backend seam passes
// by slice. The eligibility closure is built once — it reads the attention
// tracker through a stable pointer — so the hot loop never materializes
// closures.
type allocWorkspace struct {
	slots     []*selAd
	ads       []*selAd // active ads this run, in request ad order
	ids       []int    // their instance positions, aligned with ads
	pilots    []Pilot
	thetas    []int
	covs      []Coverage
	attention *Attention
	eligible  func(int32) bool
	// local is the backend of a single-node run, kept here so that
	// AllocateFromIndex allocates nothing for it.
	local localBackend
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
		w.slots = append(w.slots, &selAd{powMemo: make(map[int64]float64, 128)})
	}
	return w.slots[i]
}

// scratch returns the run's k-long Pilot/θ/Coverage slices, reusing their
// backing arrays.
func (w *allocWorkspace) scratch(k int) ([]Pilot, []int, []Coverage) {
	if cap(w.pilots) < k {
		w.pilots = make([]Pilot, k)
		w.thetas = make([]int, k)
		w.covs = make([]Coverage, k)
	}
	return w.pilots[:k], w.thetas[:k], w.covs[:k]
}

// release drops everything a run borrowed — backend state, sample handles,
// CTP vectors, width slices, coverage views — while keeping every
// workspace-owned array.
func (w *allocWorkspace) release() {
	for _, a := range w.slots {
		a.ctps = nil
		a.cov = nil
		a.pilot = Pilot{}
		a.seeds = nil // owned by the returned result now
		a.local.release()
	}
	clear(w.pilots[:cap(w.pilots)])
	clear(w.covs[:cap(w.covs)])
	w.ads = w.ads[:0]
	w.attention.bounds = nil
	w.local = localBackend{}
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

// localBackend is the Backend of a single-node run: the pinned epoch's
// per-ad samples, with coverage state in the workspace's own slots (active
// ad i uses slot i, as the loop does).
type localBackend struct {
	ep   *indexEpoch
	ws   *allocWorkspace
	soft bool
	// openingsBuilt counts the ads whose collection built its opening in
	// Open instead of borrowing a stored one (TIRMResult.OpeningsBuilt).
	openingsBuilt int
}

// Pilot implements Backend over the index's stored prefixes.
func (b *localBackend) Pilot(_ context.Context, ads []int, want int, out []Pilot) (fresh int64, err error) {
	for i, j := range ads {
		src := b.ep.ads[j]
		have := src.size()
		widths, f := src.prefix(want)
		out[i] = Pilot{Widths: widths, Have: have, KPT: &src.kptCache}
		fresh += f
	}
	return fresh, nil
}

// Open implements Backend: one coverage state per ad over the index's
// shared CSR inverted index, which is what makes the warm path O(n) set-up
// instead of O(members). The per-ad states are independent and each costs
// O(n) — coverage counters and candidate heap copied from the inverted
// index's opening for this θ (built here, row clip and heap, only the
// first time the index is opened at it), kernel mask — so this is the
// run's one fan-out; per-ad sample counts are summed sequentially after it
// returns. Each hard collection picks its own cover kernel from the ad's
// inverted index (rrset.Inverted.PrepareCover's density rule), a soft one
// always runs sparse; Open only counts them.
func (b *localBackend) Open(_ context.Context, ads, thetas []int, out []Coverage) (fresh int64, kernels [rrset.NumKernels]int, err error) {
	n := b.ep.inst.G.N()
	rrset.ParallelFor(len(ads), 0, func(i int) {
		cs := &b.ws.slots[i].local
		cs.src = b.ep.ads[ads[i]]
		sets, inv, f := cs.src.view(thetas[i])
		cs.fresh = f
		if b.soft {
			cs.soft = cs.scratch.Weighted(n, sets, inv)
			cs.hard = nil
			cs.kernel, cs.built = rrset.KernelSparse, cs.soft.OpeningBuilt()
			cs.soft.SyncHeap()
		} else {
			cs.hard = cs.scratch.Collection(n, sets, inv)
			cs.soft = nil
			cs.kernel, cs.built = cs.hard.Kernel(), cs.hard.OpeningBuilt()
			cs.hard.SyncHeap()
		}
	})
	for i := range ads {
		cs := &b.ws.slots[i].local
		fresh += cs.fresh
		kernels[cs.kernel]++
		if cs.built {
			b.openingsBuilt++
		}
		out[i] = cs
	}
	return fresh, kernels, nil
}

// covState is the local backend's Coverage for one ad. It dispatches the
// coverage bookkeeping to the active mode: the paper's hard set removal
// (rrset.Collection) or the TIRM-W soft weights (rrset.WeightedCollection)
// — a branch, not an interface pair, so the hot path pays no boxing — and
// it owns the candidate result buffers that make the per-iteration
// TopNodes scan allocation-free.
type covState struct {
	hard    *rrset.Collection
	soft    *rrset.WeightedCollection
	scratch rrset.Workspace // backing arrays of hard/soft, kept across runs
	src     *adSample
	fresh   int64          // sets drawn by Open's parallel set-up
	kernel  rrset.KernelID // cover kernel the collection chose
	built   bool           // the collection built its opening rather than borrowing one
	nodes   []int32
	covs    []int
	scores  []float64
}

// release drops the references into index-owned memory.
func (cs *covState) release() {
	cs.hard, cs.soft, cs.src = nil, nil, nil
	cs.scratch.Release()
}

// TopNodes implements Coverage.
func (cs *covState) TopNodes(_ context.Context, k int, eligible func(int32) bool) ([]int32, []float64, error) {
	if cs.hard != nil {
		cs.nodes, cs.covs = cs.hard.TopNodesInto(k, eligible, cs.nodes, cs.covs)
		cs.scores = cs.scores[:0]
		for _, c := range cs.covs {
			cs.scores = append(cs.scores, float64(c))
		}
		return cs.nodes, cs.scores, nil
	}
	cs.nodes, cs.scores = cs.soft.TopNodesInto(k, eligible, cs.nodes, cs.scores)
	return cs.nodes, cs.scores, nil
}

// Commit implements Coverage (hard: remove covered sets; soft: decay
// weights by 1−δ).
func (cs *covState) Commit(_ context.Context, u int32, delta float64) (float64, error) {
	if cs.hard != nil {
		mass := delta * float64(cs.hard.CoverNode(u))
		cs.hard.Drop(u)
		return mass, nil
	}
	mass := cs.soft.Commit(u, delta)
	cs.soft.Drop(u)
	return mass, nil
}

// Grow implements Coverage: the index samples only past its stored prefix,
// and the new sets reach the coverage state as one CSR segment.
func (cs *covState) Grow(_ context.Context, from, to int) (int64, error) {
	v, fresh := cs.src.window(from, to)
	if cs.hard != nil {
		cs.hard.AddFamily(v)
	} else {
		cs.soft.AddFamily(v)
	}
	return fresh, nil
}

// Credit implements Coverage.
func (cs *covState) Credit(_ context.Context, seed int32, delta float64, boundary int) (float64, error) {
	if cs.hard != nil {
		return delta * float64(cs.hard.CountAndCoverFrom(seed, boundary)), nil
	}
	return cs.soft.CreditFrom(seed, delta, boundary), nil
}

// CoveredMass implements Coverage.
func (cs *covState) CoveredMass() float64 {
	if cs.hard != nil {
		return float64(cs.hard.NumCovered())
	}
	return cs.soft.CoveredMass()
}

// NumSets implements Coverage.
func (cs *covState) NumSets() int {
	if cs.hard != nil {
		return cs.hard.NumSets()
	}
	return cs.soft.NumSets()
}

// MemBytes implements Coverage.
func (cs *covState) MemBytes() int64 {
	if cs.hard != nil {
		return cs.hard.MemBytes()
	}
	return cs.soft.MemBytes()
}
