package core

import (
	"math"
	"sync"

	"repro/internal/rrset"
)

// celfQueue implements lazy best-candidate selection for one ad (the CELF
// optimization of Leskovec et al., adapted to regret drops). It maintains a
// max-heap of (node, marginal-revenue) entries where stored values may be
// stale; submodularity of Π makes every stale value a valid upper bound, so
// the true argmax of the regret drop can be certified after refreshing only
// a few entries.
//
// The drop of a candidate with marginal revenue mg at budget gap g is
// |g| − |g − mg| − λ ≤ min(mg, |g|) − λ (RegretDrop). The queue pops
// entries in stale-mg order, re-evaluates them, and stops as soon as the
// best refreshed drop is at least the upper bound min(next-stale-mg, |g|) − λ
// of everything still unrefreshed. Because the drop is not monotone in mg
// (an overshooting candidate loses to a smaller one near the budget), the
// queue keeps scanning past fresh entries whose drop is below their own
// bound — this implements Algorithm 1's exact argmax over (user, ad) pairs
// rather than the "largest marginal gain" shortcut.
//
// Queues recycle their O(n) arrays through a package pool (Greedy runs one
// queue per ad per invocation), and the heap is the collections' boxing-free
// rrset.MaxHeap over stale marginal revenues.
type celfQueue struct {
	h       rrset.MaxHeap[float64]
	removed []bool
	// freshness: value for node u is current iff freshTag[u] == commits,
	// and then freshMg[u] is both that value and u's heap entry.
	freshTag []int
	freshMg  []float64
	commits  int
	evals    int     // total estimator evaluations (ablation metric)
	aside    []int32 // bestDrop scratch: nodes popped this call
}

// celfPool recycles queues across Greedy invocations.
var celfPool sync.Pool

func newCELFQueue(n int) *celfQueue {
	q, ok := celfPool.Get().(*celfQueue)
	if !ok {
		q = &celfQueue{}
	}
	q.reset(n)
	return q
}

// reset reinitializes the queue for a fresh run over n nodes, reusing its
// backing arrays.
func (q *celfQueue) reset(n int) {
	if cap(q.removed) < n {
		q.removed = make([]bool, n)
		q.freshTag = make([]int, n)
		q.freshMg = make([]float64, n)
		q.h = make(rrset.MaxHeap[float64], 0, n)
	}
	q.removed = q.removed[:n]
	q.freshTag = q.freshTag[:n]
	q.freshMg = q.freshMg[:n]
	q.h = q.h[:0]
	q.commits = 0
	q.evals = 0
	for u := 0; u < n; u++ {
		q.removed[u] = false
		q.freshTag[u] = -1
		q.h.Push(int32(u), math.Inf(1)) // all +Inf: nothing sifts
	}
}

// release parks the queue for reuse by a later run.
func (q *celfQueue) release() { celfPool.Put(q) }

// remove permanently excludes a node (committed to this ad, or attention
// bound exhausted — both monotone).
func (q *celfQueue) remove(u int32) { q.removed[u] = true }

// noteCommit invalidates cached evaluations after the ad's seed set grew.
func (q *celfQueue) noteCommit() { q.commits++ }

// bestDrop returns the eligible node maximizing RegretDrop(gap, mg, λ)
// together with its marginal revenue and drop. ok is false when the heap is
// exhausted. Callers must still check drop > 0 before committing.
func (q *celfQueue) bestDrop(est AdEstimator, gap, lambda float64, eligible func(int32) bool) (bestU int32, bestMg, bestDrop float64, ok bool) {
	bestU, bestDrop = -1, math.Inf(-1)
	ubound := func(mg float64) float64 { return math.Min(mg, math.Abs(gap)) - lambda }
	aside := q.aside[:0]
	for len(q.h) > 0 {
		u, mg := q.h.Top()
		if q.removed[u] {
			q.h.Pop()
			continue
		}
		if eligible != nil && !eligible(u) {
			q.removed[u] = true
			q.h.Pop()
			continue
		}
		if bestU >= 0 && bestDrop >= ubound(mg) {
			break // nothing left can beat the incumbent
		}
		q.h.Pop()
		if q.freshTag[u] != q.commits {
			mg = est.MarginalRevenue(u)
			q.evals++
			q.freshTag[u] = q.commits
			q.freshMg[u] = mg
		}
		if d := RegretDrop(gap, mg, lambda); d > bestDrop {
			bestU, bestMg, bestDrop = u, mg, d
		}
		aside = append(aside, u)
	}
	for _, u := range aside {
		q.h.Push(u, q.freshMg[u])
	}
	q.aside = aside[:0]
	if bestU < 0 {
		return 0, 0, 0, false
	}
	return bestU, bestMg, bestDrop, true
}
