package rrset

import "math"

// MaxHeap is a max-heap of (node, score) entries with concrete push/pop —
// the sift algorithm of container/heap written once for count (int32) and
// mass (float64) scores, so heap layout, and therefore tie-breaking among
// equal-score nodes, is bit-compatible with container/heap (pinned by
// TestMaxHeapMatchesContainerHeap) without the interface{} boxing that
// allocated on every stale-entry refresh. Each score type gets its own
// instantiation: the comparison inside the sift is a plain machine compare.
// The collections' candidate heaps and core's CELF queue all run on it.
type MaxHeap[S int32 | float64] []heapEntry[S]

// heapEntry is a (possibly stale) heap record: 8 bytes at int32, 16 at
// float64 — what the collections' MemBytes count per live entry.
type heapEntry[S int32 | float64] struct {
	node  int32
	score S
}

func (h MaxHeap[S]) less(i, j int) bool { return h[i].score > h[j].score }

// Init establishes the heap invariant over the full slice (container/heap
// Init).
func (h MaxHeap[S]) Init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// Top returns the max entry without removing it; the heap must be
// non-empty.
func (h MaxHeap[S]) Top() (node int32, score S) { return h[0].node, h[0].score }

// Push appends an entry and sifts it up (container/heap Push).
func (h *MaxHeap[S]) Push(node int32, score S) {
	*h = append(*h, heapEntry[S]{node, score})
	h.up(len(*h) - 1)
}

// Pop removes and returns the max entry (container/heap Pop).
func (h *MaxHeap[S]) Pop() (node int32, score S) {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e.node, e.score
}

func (h MaxHeap[S]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h MaxHeap[S]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// floatSlack absorbs float drift in the lazy-heap staleness check: a mass
// entry is considered fresh if it matches the current value this closely in
// relative terms. Counts compare with slack 0, i.e. exactly.
const floatSlack = 1e-9

// candidates is the paper's SelectBestNode (Algorithm 3) over any score
// vector: a lazy max-heap whose entries may lag the live scores — valid
// because scores only decrease between rebuilds — plus the permanent
// ineligibility marks and the scratch of the top-k walk. Collection (set-
// backed and counter mode) instantiates it at int32 residual coverage,
// WeightedCollection at float64 weighted coverage; their BestNode / TopNodes
// / SyncHeap / Drop are wrappers over it, so the two modes cannot drift in
// how they refresh, drop or tie-break.
//
// The heap is built lazily: owners only mark it stale when scores grow, and
// the rebuild happens on the first operation that observes or depends on it
// (a query, or a score mutation — rebuilding before mutations keeps the
// heap's evolution, and therefore tie-breaking among equal-score nodes,
// byte-identical to a rebuild-on-add). A collection that is built and thrown
// away unqueried pays nothing for its heap.
//
// The rebuild pending after a warm-start Reset is over scores no request
// has touched — the opening's cut vector, every node alive — so its result
// is stored with the opening and sync copies it (adoptHeap) instead of
// building it again. Anything that moves scores or eligibility before that
// sync ran clears opened, and the rebuild reads the live scores as ever.
type candidates[S int32 | float64] struct {
	pq     MaxHeap[S]
	stale  bool     // heap needs a rebuild before its next use
	opened *opening // non-nil: the pending rebuild is over this opening's untouched scores
	dead   []bool   // node -> permanently ineligible (dropped from heap)
	// lazy, when non-nil, is the lazy Collection whose scores these are:
	// a count is recounted (Collection.recount) before the heap reads it.
	// Always nil at float64.
	lazy *Collection

	aside   []heapEntry[S] // topLoop scratch
	seen    []uint64       // per-call dedup stamps (topLoop, delta covers)
	seenGen uint64
}

// reset empties the heap over n nodes and marks it for a rebuild, recycling
// every backing array; its scores are eager until the owner says
// otherwise. o, when non-nil, is the opening whose cut vector the owner's
// scores start as.
func (c *candidates[S]) reset(n int, o *opening) {
	c.dead = cleared(c.dead, n)
	c.pq = c.pq[:0]
	c.stale = true
	c.opened = o
	c.lazy = nil
}

// invalidate marks the heap for a rebuild from the live scores — what an
// owner calls when scores grew.
func (c *candidates[S]) invalidate() {
	c.stale = true
	c.opened = nil
}

// Drop permanently removes a node from BestNode consideration (e.g. a node
// already chosen as a seed for this ad).
func (c *candidates[S]) Drop(u int32) {
	c.dead[u] = true
	c.opened = nil // a pending rebuild must now leave u out
}

// sync performs the deferred rebuild, if one is pending: one fresh entry
// per live node of positive score — copied from the opening while the
// scores are still its, built over every recounted score otherwise.
func (c *candidates[S]) sync(scores []S) {
	if !c.stale {
		return
	}
	c.stale = false
	if o := c.opened; o != nil {
		c.opened = nil
		c.pq = adoptHeap(c.pq, o.candidateHeap())
		return
	}
	if c.lazy != nil {
		c.lazy.recountAll()
	}
	c.pq = c.pq[:0]
	for u, s := range scores {
		if s > 0 && !c.dead[u] {
			c.pq = append(c.pq, heapEntry[S]{int32(u), s})
		}
	}
	c.pq.Init()
}

// adoptHeap overwrites dst with an opening's heap, scores converted to S:
// one copy at int32; at float64 one converting pass, which is exact and
// order-preserving, so every comparison Init would make over the converted
// scores comes out as it did over the counts and the array is the one Init
// would leave.
func adoptHeap[S int32 | float64](dst MaxHeap[S], src MaxHeap[int32]) MaxHeap[S] {
	if cap(dst) < len(src) {
		dst = make(MaxHeap[S], len(src))
	}
	dst = dst[:len(src)]
	if same, ok := any(dst).(MaxHeap[int32]); ok {
		copy(same, src)
		return dst
	}
	for i, e := range src {
		dst[i] = heapEntry[S]{e.node, S(e.score)}
	}
	return dst
}

// stamps starts a fresh dedup generation over n nodes: seen[u] == gen
// means u was already met during this call.
func (c *candidates[S]) stamps(n int) (gen uint64) {
	if len(c.seen) < n {
		c.seen = make([]uint64, n)
	}
	c.seenGen++
	return c.seenGen
}

// settle pops the heap until its top is a valid candidate — alive, fresh
// (within slack, relative, of its live score), positive and eligible — and
// reports whether one is left. Stale entries are refreshed in place, dead
// and exhausted ones dropped, and nodes reported ineligible dropped
// permanently. gen != 0 additionally skips nodes stamped seen this call:
// stale-refresh cycles can leave duplicate fresh entries for a node. A
// lazy owner recounts the live top before it is compared, so every
// comparison reads the exact score an eager owner holds.
func (c *candidates[S]) settle(scores []S, slack float64, eligible func(int32) bool, gen uint64) bool {
	for len(c.pq) > 0 {
		top := c.pq[0]
		if gen != 0 && c.seen[top.node] == gen || c.dead[top.node] {
			c.pq.Pop()
			continue
		}
		if c.lazy != nil {
			c.lazy.recount(top.node)
		}
		cur := scores[top.node]
		switch {
		case math.Abs(float64(top.score)-float64(cur)) > slack*(1+math.Abs(float64(cur))):
			c.pq.Pop()
			if cur > 0 {
				c.pq.Push(top.node, cur)
			}
		case cur <= 0:
			c.pq.Pop()
		case eligible != nil && !eligible(top.node):
			c.dead[top.node] = true
			c.pq.Pop()
		default:
			return true
		}
	}
	return false
}

// best returns the eligible node of maximum score, or ok=false if no
// eligible node has a positive one. eligible==nil means every node is.
func (c *candidates[S]) best(scores []S, slack float64, eligible func(int32) bool) (node int32, score S, ok bool) {
	c.sync(scores)
	if !c.settle(scores, slack, eligible, 0) {
		return 0, 0, false
	}
	node, _ = c.pq.Top()
	return node, scores[node], true
}

// topInto appends to nodes[:0] up to k eligible nodes in decreasing score
// order, leaving the heap intact.
//
// k = 1 — the paper's CandidateDepth, asked for on every greedy round — is
// best plus the pop and re-push of the winner that the general loop's
// set-aside round trip performs: the same heap operations in the same
// order, so heap layout and tie-breaks match the general loop exactly (see
// TestTopOneHeapEvolution), without the dedup stamps and set-aside buffer
// that only k ≥ 2 needs.
func (c *candidates[S]) topInto(k int, scores []S, slack float64, eligible func(int32) bool, nodes []int32) []int32 {
	if k != 1 {
		return c.topLoop(k, scores, slack, eligible, nodes)
	}
	nodes = nodes[:0]
	if u, _, ok := c.best(scores, slack, eligible); ok {
		c.pq.Push(c.pq.Pop())
		nodes = append(nodes, u)
	}
	return nodes
}

// topLoop is topInto for any k: pop valid entries aside until k distinct
// nodes are collected, then push them back.
func (c *candidates[S]) topLoop(k int, scores []S, slack float64, eligible func(int32) bool, nodes []int32) []int32 {
	c.sync(scores)
	nodes = nodes[:0]
	aside := c.aside[:0]
	gen := c.stamps(len(scores))
	for len(nodes) < k && c.settle(scores, slack, eligible, gen) {
		u, s := c.pq.Pop()
		aside = append(aside, heapEntry[S]{u, s})
		c.seen[u] = gen
		nodes = append(nodes, u)
	}
	for _, e := range aside {
		c.pq.Push(e.node, e.score)
	}
	c.aside = aside[:0]
	return nodes
}
