package rrset

import (
	"math"
)

// WeightedCollection is the soft-coverage variant of Collection (the
// repository's TIRM-W extension, see DESIGN.md ablation ABL-SOFT).
//
// The paper's Algorithm 2 removes an RR-set once any seed covers it, so its
// revenue estimate credits each set to the *first* covering seed only:
// Π̂ = Σ_j cpe·n·δ_j·cov_j/θ. That underestimates the true IC-CTP revenue —
// a set whose first seed declines its CTP coin (probability 1−δ ≈ 0.98 at
// realistic CTPs) can still be claimed by a later seed. The exact
// expectation over node coins is per set R:
//
//	Pr[R covered] = 1 − Π_{u ∈ S∩R} (1 − δ_u),
//
// so WeightedCollection maintains a live weight w_R = Π_{u∈S∩R}(1−δ_u) per
// set and weighted node scores wcov[u] = Σ_{R∋u} w_R. The marginal revenue
// of a candidate u is then cpe·n·δ_u·wcov[u]/θ — an unbiased estimator of
// the true TIC-CTP marginal (it equals the RRC-set estimator in
// expectation, without the 1/δ sample blow-up). Committing u multiplies
// each covering set's weight by (1−δ_u).
//
// With δ = 1 this degenerates exactly to Collection's hard semantics.
//
// Storage is the same flat CSR segment layout as Collection (covSegment);
// the only per-set state beyond the shared arenas is the weight vector.
// The candidate heap is rebuilt lazily exactly as in Collection.
type WeightedCollection struct {
	n       int
	segs    []covSegment
	numSets int
	weight  []float64 // set id -> Π(1−δ) over committed members
	wcov    []float64 // node -> Σ weights of sets containing it
	claimed float64   // Σ_R (1 − w_R)
	pq      wcovHeap
	stale   bool
	dead    []bool

	cut     []int32     // reusable cut-vector backing for Reset
	aside   []wcovEntry // TopNodes scratch
	seen    []uint64    // TopNodes per-call dedup stamps
	seenGen uint64

	bits  *coverBits // first segment's membership bitmap; non-nil means the bitset kernel is active
	zerow []uint64   // zero-weight-set mask over the first segment (bitset kernel)
}

// NewWeightedCollection creates an empty weighted index over n nodes.
func NewWeightedCollection(n int) *WeightedCollection {
	return &WeightedCollection{
		n:    n,
		wcov: make([]float64, n),
		dead: make([]bool, n),
	}
}

// initHeap rebuilds the lazy max-heap with one fresh entry per node of
// positive weighted coverage.
func (c *WeightedCollection) initHeap() {
	c.pq = c.pq[:0]
	for u := 0; u < c.n; u++ {
		if c.wcov[u] > 0 && !c.dead[u] {
			c.pq = append(c.pq, wcovEntry{node: int32(u), wcov: c.wcov[u]})
		}
	}
	c.pq.init()
}

// SyncHeap performs the deferred heap rebuild, if one is pending (see
// Collection.SyncHeap).
func (c *WeightedCollection) SyncHeap() {
	if c.stale {
		c.initHeap()
		c.stale = false
	}
}

// N returns the node-universe size.
func (c *WeightedCollection) N() int { return c.n }

// NumSets returns the number of sets added so far.
func (c *WeightedCollection) NumSets() int { return c.numSets }

// CoveredMass returns Σ_R (1 − w_R): the expected number of covered sets
// under the committed seeds' CTP coins. n·CoveredMass/θ estimates the
// seeds' joint IC-CTP spread.
func (c *WeightedCollection) CoveredMass() float64 { return c.claimed }

// Add appends one RR-set with weight 1. Like Collection.Add this is a
// convenience for tests and toy universes; hot paths use AddBatch or
// AddFamily.
func (c *WeightedCollection) Add(set []int32) {
	c.AddBatch([][]int32{set})
}

// AddBatch appends many sets — the slice-shaped compatibility wrapper over
// AddFamily.
func (c *WeightedCollection) AddBatch(sets [][]int32) {
	if len(sets) == 0 {
		return
	}
	c.AddFamily(FamilyFromSets(sets).View())
}

// AddFamily appends a CSR view of fresh sets as one segment with weight 1
// each, building its inverted index in one counting pass and deferring the
// heap rebuild to the next use (see Collection.AddFamily).
func (c *WeightedCollection) AddFamily(v FamilyView) {
	k := v.Len()
	if k == 0 {
		return
	}
	base := int32(c.numSets)
	inv := BuildInverted(c.n, v, base)
	c.segs = append(c.segs, covSegment{base: base, view: v, inv: inv})
	c.numSets += k
	for i := 0; i < k; i++ {
		c.weight = append(c.weight, 1)
	}
	for u := 0; u < c.n; u++ {
		c.wcov[u] += float64(inv.Count(int32(u)))
	}
	c.stale = true
}

// Reset mirrors Collection.Reset for the soft-coverage mode: reinitialize
// over a shared view and inverted index recycling every backing array
// (weights included), so a steady-state reset allocates nothing.
func (c *WeightedCollection) Reset(n int, v FamilyView, inv *Inverted) {
	k := v.Len()
	c.n = n
	c.numSets = k
	c.claimed = 0
	if cap(c.weight) < k {
		c.weight = make([]float64, k)
	}
	c.weight = c.weight[:k]
	for i := range c.weight {
		c.weight[i] = 1
	}
	c.dead = grownBools(c.dead, n)
	c.cut = clipInvertedInto(inv, k, c.cut)
	if cap(c.wcov) < n {
		c.wcov = make([]float64, n)
	}
	c.wcov = c.wcov[:n]
	for u := 0; u < n; u++ {
		c.wcov[u] = float64(c.cut[u])
	}
	c.segs = append(c.segs[:0], covSegment{base: 0, view: v, inv: inv, cut: c.cut})
	c.pq = c.pq[:0]
	c.stale = true
	c.bits = nil
	c.UseKernel(KernelBitset) // as in Collection.Reset
}

// Kernel returns the identifier of the collection's active cover kernel.
func (c *WeightedCollection) Kernel() KernelID {
	if c.bits != nil {
		return KernelBitset
	}
	return KernelSparse
}

// UseKernel overrides the kernel Reset chose, mirroring
// Collection.UseKernel's contract for the soft-coverage mode: KernelBitset
// activates only on a fresh warm-start collection (one base-0 segment,
// bitmap built, no mass claimed yet) and the zero-weight-word mask
// recycles its backing array; anything else keeps the active kernel.
// Returns the kernel active afterwards.
func (c *WeightedCollection) UseKernel(id KernelID) KernelID {
	if id != KernelBitset {
		c.bits = nil
		return KernelSparse
	}
	if len(c.segs) != 1 || c.segs[0].base != 0 || c.claimed != 0 {
		return c.Kernel()
	}
	cb := c.segs[0].inv.preparedBits()
	if cb == nil || cb.sets < c.numSets {
		return c.Kernel()
	}
	k := c.numSets
	kw := (k + 63) / 64
	if cap(c.zerow) < kw {
		c.zerow = make([]uint64, kw)
	}
	c.zerow = c.zerow[:kw]
	for i := range c.zerow {
		c.zerow[i] = 0
	}
	// Pre-set the bits past the view's set count so the sweep needs no
	// tail masking: ids ≥ k read as zero-weight.
	if r := uint(k) & 63; r != 0 {
		c.zerow[kw-1] = ^uint64(0) << r
	}
	c.bits = cb
	return KernelBitset
}

// NewWeightedCollectionFromFamily mirrors rrset.NewCollectionFromFamily for
// the soft-coverage mode: O(n log d) construction over a shared sample view
// and inverted index (same row-clipping contract).
func NewWeightedCollectionFromFamily(n int, v FamilyView, inv *Inverted) *WeightedCollection {
	c := &WeightedCollection{}
	c.Reset(n, v, inv)
	return c
}

// WeightedCoverage returns wcov[u] = Σ_{R∋u} w_R.
func (c *WeightedCollection) WeightedCoverage(u int32) float64 { return c.wcov[u] }

// floatSlack absorbs float drift in the lazy-heap staleness check: an entry
// is considered fresh if it matches the current value this closely in
// relative terms.
const floatSlack = 1e-9

// BestNode returns the eligible node with maximum weighted coverage.
// Semantics mirror Collection.BestNode: ineligible nodes are dropped
// permanently (monotone eligibility), stale heap entries are refreshed
// lazily — valid because wcov only decreases between Adds.
func (c *WeightedCollection) BestNode(eligible func(int32) bool) (node int32, wcov float64, ok bool) {
	c.SyncHeap()
	for len(c.pq) > 0 {
		top := c.pq[0]
		if c.dead[top.node] {
			c.pq.pop()
			continue
		}
		cur := c.wcov[top.node]
		if math.Abs(top.wcov-cur) > floatSlack*(1+math.Abs(cur)) {
			c.pq.pop()
			if cur > 0 {
				c.pq.push(wcovEntry{node: top.node, wcov: cur})
			}
			continue
		}
		if cur <= 0 {
			c.pq.pop()
			continue
		}
		if eligible != nil && !eligible(top.node) {
			c.dead[top.node] = true
			c.pq.pop()
			continue
		}
		return top.node, cur, true
	}
	return 0, 0, false
}

// Drop permanently removes a node from BestNode consideration.
func (c *WeightedCollection) Drop(u int32) { c.dead[u] = true }

// TopNodes returns up to k eligible nodes in decreasing weighted-coverage
// order (see Collection.TopNodes). Allocation-free callers use
// TopNodesInto.
func (c *WeightedCollection) TopNodes(k int, eligible func(int32) bool) (nodes []int32, wcovs []float64) {
	return c.TopNodesInto(k, eligible, nil, nil)
}

// TopNodesInto is TopNodes appending into caller-provided buffers (which
// may be nil) — see Collection.TopNodesInto for the contract, including
// the k = 1 path.
func (c *WeightedCollection) TopNodesInto(k int, eligible func(int32) bool, nodes []int32, wcovs []float64) ([]int32, []float64) {
	if k != 1 {
		return c.topNodesLoop(k, eligible, nodes, wcovs)
	}
	nodes, wcovs = nodes[:0], wcovs[:0]
	if u, wcov, ok := c.BestNode(eligible); ok {
		c.pq.push(c.pq.pop())
		nodes, wcovs = append(nodes, u), append(wcovs, wcov)
	}
	return nodes, wcovs
}

// topNodesLoop is TopNodesInto for any k (see Collection.topNodesLoop).
func (c *WeightedCollection) topNodesLoop(k int, eligible func(int32) bool, nodes []int32, wcovs []float64) ([]int32, []float64) {
	c.SyncHeap()
	nodes, wcovs = nodes[:0], wcovs[:0]
	aside := c.aside[:0]
	if len(c.seen) < c.n {
		c.seen = make([]uint64, c.n)
	}
	c.seenGen++
	gen := c.seenGen
	for len(c.pq) > 0 && len(nodes) < k {
		top := c.pq[0]
		if c.seen[top.node] == gen {
			// Stale-refresh cycles can leave duplicate fresh entries for a
			// node; collect each node at most once per call.
			c.pq.pop()
			continue
		}
		if c.dead[top.node] {
			c.pq.pop()
			continue
		}
		cur := c.wcov[top.node]
		if math.Abs(top.wcov-cur) > floatSlack*(1+math.Abs(cur)) {
			c.pq.pop()
			if cur > 0 {
				c.pq.push(wcovEntry{node: top.node, wcov: cur})
			}
			continue
		}
		if cur <= 0 {
			c.pq.pop()
			continue
		}
		if eligible != nil && !eligible(top.node) {
			c.dead[top.node] = true
			c.pq.pop()
			continue
		}
		c.pq.pop()
		aside = append(aside, top)
		c.seen[top.node] = gen
		nodes = append(nodes, top.node)
		wcovs = append(wcovs, cur)
	}
	for _, e := range aside {
		c.pq.push(e)
	}
	c.aside = aside[:0]
	return nodes, wcovs
}

// Commit records u as a seed with CTP delta: every set containing u has its
// weight multiplied by (1−delta), and the weighted coverages of all its
// members drop accordingly. Returns the mass u claims, δ·Σ_{R∋u} w_R —
// exactly the marginal estimate BestNode's score implies.
func (c *WeightedCollection) Commit(u int32, delta float64) float64 {
	return c.commitFrom(u, delta, 0)
}

// CreditFrom is Commit restricted to sets with id ≥ firstID — TIRM-W's
// UpdateEstimates path after appending fresh samples (new sets arrive with
// weight 1; each already-committed seed re-applies its coin to them).
func (c *WeightedCollection) CreditFrom(u int32, delta float64, firstID int) float64 {
	return c.commitFrom(u, delta, firstID)
}

func (c *WeightedCollection) commitFrom(u int32, delta float64, firstID int) float64 {
	if delta < 0 || delta > 1 {
		panic("rrset: CTP out of [0,1]")
	}
	c.SyncHeap()
	var total float64
	segs := c.segs
	if c.bits != nil {
		total, segs = c.bitsetCommitFrom(u, delta, firstID), segs[1:]
	}
	return total + sparseCommitSegs(c, u, delta, firstID, segs)
}

// MemBytes mirrors Collection.MemBytes for Table 4 instrumentation: the
// exact data footprint of the segments plus weights, coverages, flags, and
// live heap entries.
func (c *WeightedCollection) MemBytes() int64 {
	var total int64
	for i := range c.segs {
		total += c.segs[i].memBytes()
	}
	total += int64(len(c.weight))*8 +
		int64(c.n)*9 + // wcov + dead
		int64(len(c.pq))*16
	if c.bits != nil {
		total += int64(len(c.zerow)) * 8 // zero-weight mask, see Collection.MemBytes
	}
	return total
}

type wcovEntry struct {
	node int32
	wcov float64
}

// wcovHeap is covHeap's float-scored sibling: a max-heap with concrete
// push/pop replicating container/heap's sift algorithm bit for bit.
type wcovHeap []wcovEntry

func (h wcovHeap) less(i, j int) bool { return h[i].wcov > h[j].wcov }

// init establishes the heap invariant over the full slice.
func (h wcovHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push appends e and sifts it up.
func (h *wcovHeap) push(e wcovEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the max entry.
func (h *wcovHeap) pop() wcovEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h wcovHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h wcovHeap) down(i0, n int) {
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
