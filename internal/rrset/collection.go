package rrset

import (
	"fmt"
	"sort"
)

// covSegment is one contiguous run of sets inside a coverage collection:
// a CSR view of the sets (local ids 0..view.Len()-1, global ids start at
// base) plus a CSR inverted index over them. The first segment of a
// warm-start collection shares its view and inverted index with the
// long-lived core.Index; growth segments own both. cut, when non-nil,
// limits each node's inverted row to its first cut[u] ids — how a shared
// inverted index covering more sets than the view is clipped without
// copying (the index's rows are ascending, so a prefix is exactly "ids
// below the view's length").
type covSegment struct {
	base int32
	view FamilyView
	inv  *Inverted
	cut  []int32
}

// idsOf returns the (global, ascending) ids of this segment's sets that
// contain u.
func (s *covSegment) idsOf(u int32) []int32 {
	ids := s.inv.IDs(u)
	if s.cut != nil {
		ids = ids[:s.cut[u]]
	}
	return ids
}

// set returns the members of the set with global id.
func (s *covSegment) set(id int32) []int32 { return s.view.Set(int(id - s.base)) }

// end returns the first global id past this segment.
func (s *covSegment) end() int { return int(s.base) + s.view.Len() }

// memBytes is the segment's exact data footprint (view + inverted + cut).
// For a shared segment this counts the index's arrays once per collection
// holding them; callers wanting process-level accounting should count the
// core.Index separately.
func (s *covSegment) memBytes() int64 {
	total := s.view.MemBytes() + s.inv.MemBytes()
	if s.cut != nil {
		total += 4 * int64(len(s.cut))
	}
	return total
}

// clipInverted computes the per-node prefix lengths of inv's rows that fall
// below k — the cut vector aligning a shared inverted index with a k-set
// view. Rows are ascending, so each cut is one binary search (skipped for
// the common row that lies entirely below k).
func clipInverted(inv *Inverted, k int) []int32 {
	return clipInvertedInto(inv, k, nil)
}

// clipInvertedInto is clipInverted writing into a reusable buffer (grown
// when too small — every element is overwritten, so no clearing is needed).
func clipInvertedInto(inv *Inverted, k int, cut []int32) []int32 {
	n := inv.NumNodes()
	if cap(cut) < n {
		cut = make([]int32, n)
	}
	cut = cut[:n]
	w := int32(k)
	for u := 0; u < n; u++ {
		ids := inv.IDs(int32(u))
		c := len(ids)
		if c > 0 && ids[c-1] >= w {
			c = sort.Search(c, func(i int) bool { return ids[i] >= w })
		}
		cut[u] = int32(c)
	}
	return cut
}

// grownBools returns buf resized to n with every element false, reusing the
// backing array when it is large enough (the clearing loop compiles to a
// memclr).
func grownBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// Collection is a mutable coverage index over a growing family of RR-sets.
// It supports the operations TIM's phase 2 and TIRM's main loop need:
//
//   - Add / AddBatch / AddFamily: append newly sampled sets (θ grows over
//     time in TIRM);
//   - BestNode: argmax residual coverage subject to a caller-supplied
//     eligibility filter (attention bounds) — implemented with a lazy
//     max-heap, valid because residual coverage only decreases between
//     additions and additions rebuild the heap;
//   - CoverNode: mark every residual set containing a node as covered
//     (Algorithm 2 line 12) and return how many sets that covered;
//   - CountAndCoverFrom: credit an existing seed with sets appended after a
//     given boundary (Algorithm 4, UpdateEstimates).
//
// Sets live in flat CSR segments (see covSegment): per-set state is three
// flat arrays and the heap, so a collection over millions of sets is a
// handful of allocations and GC-quiet.
//
// The candidate heap is built lazily: construction, Reset, and AddFamily
// only mark it stale, and the rebuild happens on the first operation that
// observes or depends on it (BestNode/TopNodes, or a coverage mutation —
// rebuilding before mutations keeps the heap's evolution, and therefore
// tie-breaking among equal-coverage nodes, byte-identical to the historical
// rebuild-on-add behavior). A collection that is built and thrown away
// unqueried pays nothing for its heap.
//
// A warm-start collection (Reset, NewCollectionFromFamily) sweeps its first
// segment with the bitset kernel exactly when the shared inverted index
// carries a membership bitmap (Inverted.PrepareCover decides), and with the
// sparse walk otherwise — see kernel.go; Kernel reports which.
type Collection struct {
	n       int
	segs    []covSegment
	numSets int
	covered []bool  // set id -> already covered by a chosen seed
	cov     []int32 // node -> residual coverage (uncovered sets containing it)
	ncov    int     // number of covered sets
	pq      covHeap
	stale   bool   // heap needs a rebuild before its next use
	dead    []bool // node -> permanently ineligible (dropped from heap)

	cut     []int32    // reusable cut-vector backing for Reset
	aside   []covEntry // TopNodes scratch
	seen    []uint64   // TopNodes / delta-cover per-call dedup stamps
	seenGen uint64
	dpos    []int32 // delta-cover per-node output positions (counter.go)

	bits *coverBits // first segment's membership bitmap; non-nil means the bitset kernel is active
	covw []uint64   // covered-set mask over the first segment (bitset kernel)
}

// NewCollection creates an empty index over n nodes.
func NewCollection(n int) *Collection {
	return &Collection{
		n:    n,
		cov:  make([]int32, n),
		dead: make([]bool, n),
	}
}

// initHeap rebuilds the lazy max-heap with one fresh entry per node of
// positive residual coverage.
func (c *Collection) initHeap() {
	c.pq = c.pq[:0]
	for u := 0; u < c.n; u++ {
		if c.cov[u] > 0 && !c.dead[u] {
			c.pq = append(c.pq, covEntry{node: int32(u), cov: c.cov[u]})
		}
	}
	c.pq.init()
}

// SyncHeap performs the deferred heap rebuild, if one is pending. Every
// operation that needs the heap calls it, so callers never have to; a
// caller that sets many collections up in parallel calls it there to pay
// the O(n) build on its set-up workers rather than in its first query. The
// heap it builds is the one that query would have built.
func (c *Collection) SyncHeap() {
	if c.stale {
		c.initHeap()
		c.stale = false
	}
}

// N returns the node-universe size.
func (c *Collection) N() int { return c.n }

// MemBytes reports the index's exact resident footprint: CSR member
// arenas, CSR inverted indexes, coverage counters, per-set flags, and live
// heap entries. TIRM reports it for the paper's Table 4 (memory usage),
// measuring the structure that actually dominates RR-set algorithms'
// memory. Shared segments (warm starts over a core.Index) count the shared
// arrays here too — the footprint reachable from this collection.
func (c *Collection) MemBytes() int64 {
	var total int64
	for i := range c.segs {
		total += c.segs[i].memBytes()
	}
	total += int64(len(c.covered)) + // covered flags
		int64(c.n)*5 + // cov counters + dead flags
		int64(len(c.pq))*8
	if c.bits != nil {
		// The mask is workspace-owned and outlives a run: it counts only
		// while the bitset kernel sweeps it.
		total += int64(len(c.covw)) * 8
	}
	return total
}

// NumSets returns the total number of sets ever added.
func (c *Collection) NumSets() int { return c.numSets }

// NumCovered returns the number of sets already covered by chosen seeds.
func (c *Collection) NumCovered() int { return c.ncov }

// Add appends one RR-set and updates coverage counts. Convenience surface
// for tests and toy universes only: each call builds a one-set segment
// (hot paths append whole batches via AddBatch or AddFamily); the heap
// rebuild is deferred, so looped Adds cost O(members) each, not O(n).
func (c *Collection) Add(set []int32) {
	c.AddBatch([][]int32{set})
}

// AddBatch appends many sets — the slice-shaped compatibility wrapper over
// AddFamily (members are copied into a fresh arena segment).
func (c *Collection) AddBatch(sets [][]int32) {
	if len(sets) == 0 {
		return
	}
	c.AddFamily(FamilyFromSets(sets).View())
}

// AddFamily appends a CSR view of freshly sampled sets as one segment,
// building its inverted index in a single counting pass and marking the
// candidate heap for a deferred one-shot rebuild — O(members + n) per
// growth, with no per-membership allocation and no heap work until the
// next query needs it.
func (c *Collection) AddFamily(v FamilyView) {
	k := v.Len()
	if k == 0 {
		return
	}
	base := int32(c.numSets)
	inv := BuildInverted(c.n, v, base)
	c.segs = append(c.segs, covSegment{base: base, view: v, inv: inv})
	c.numSets += k
	c.covered = append(c.covered, make([]bool, k)...)
	for u := 0; u < c.n; u++ {
		c.cov[u] += int32(inv.Count(int32(u)))
	}
	c.stale = true
}

// Reset reinitializes c as a warm-start collection over a shared sample
// view and its prebuilt inverted index — the same state
// NewCollectionFromFamily constructs, but recycling every backing array
// (coverage counters, per-set flags, cut vector, heap and scratch
// buffers), so a steady-state reset allocates nothing. All state from the
// previous run, including views of a previous index, is dropped. inv must
// satisfy the same prefix contract as in NewCollectionFromFamily.
func (c *Collection) Reset(n int, v FamilyView, inv *Inverted) {
	k := v.Len()
	c.n = n
	c.numSets = k
	c.ncov = 0
	c.covered = grownBools(c.covered, k)
	c.dead = grownBools(c.dead, n)
	c.cut = clipInvertedInto(inv, k, c.cut)
	if cap(c.cov) < n {
		c.cov = make([]int32, n)
	}
	c.cov = c.cov[:n]
	copy(c.cov, c.cut)
	c.segs = append(c.segs[:0], covSegment{base: 0, view: v, inv: inv, cut: c.cut})
	c.pq = c.pq[:0]
	c.stale = true
	// A fresh single-segment collection meets every UseKernel
	// precondition, so this activates the bitset kernel exactly when inv
	// carries a bitmap covering the view.
	c.bits = nil
	c.UseKernel(KernelBitset)
}

// Kernel returns the identifier of the collection's active cover kernel.
func (c *Collection) Kernel() KernelID {
	if c.bits != nil {
		return KernelBitset
	}
	return KernelSparse
}

// UseKernel overrides the kernel Reset chose and returns the kernel
// actually active afterwards — the hook the kernel-equivalence tests and
// the benchmark's sweep rung use to run both kernels over one sample;
// production code never calls it. Requesting KernelBitset succeeds only
// when the collection is a fresh warm-start over one shared base-0 segment
// whose inverted index has its membership bitmap built (PrepareCover's
// density rule or PrepareCoverBits) and no set has been covered yet;
// otherwise — counter collections, hand-grown collections, indexes
// without a bitmap, mid-run switches — the active kernel stays. Call it
// right after Reset / NewCollectionFromFamily, before any cover
// operation. The covered-word mask recycles its backing array across
// Reset cycles, so steady-state activation allocates nothing.
func (c *Collection) UseKernel(id KernelID) KernelID {
	if id != KernelBitset {
		c.bits = nil
		return KernelSparse
	}
	if len(c.segs) != 1 || c.segs[0].base != 0 || c.ncov != 0 {
		return c.Kernel()
	}
	cb := c.segs[0].inv.preparedBits()
	if cb == nil || cb.sets < c.numSets {
		return c.Kernel()
	}
	k := c.numSets
	kw := (k + 63) / 64
	if cap(c.covw) < kw {
		c.covw = make([]uint64, kw)
	}
	c.covw = c.covw[:kw]
	for i := range c.covw {
		c.covw[i] = 0
	}
	// Pre-set the bits past the view's set count so the sweep needs no
	// tail masking: ids ≥ k read as already covered.
	if r := uint(k) & 63; r != 0 {
		c.covw[kw-1] = ^uint64(0) << r
	}
	c.bits = cb
	return KernelBitset
}

// NewCollectionFromFamily builds a collection over a prebuilt sample view
// and its prebuilt inverted index, the warm-start fast path of
// core.AllocateFromIndex: construction touches O(n log d) state (one
// binary-searched row clip per node) instead of every membership. inv must
// index, with global ids ascending per node, a family of which v is the
// prefix — rows may extend past v.Len() (the shared index usually holds
// more sets than this run's θ); the excess is clipped, not copied.
func NewCollectionFromFamily(n int, v FamilyView, inv *Inverted) *Collection {
	c := &Collection{}
	c.Reset(n, v, inv)
	return c
}

// Coverage returns the residual coverage of u: the number of not-yet-covered
// sets that contain u. n·cov/θ estimates u's marginal IC spread w.r.t. the
// already-chosen seeds.
func (c *Collection) Coverage(u int32) int { return int(c.cov[u]) }

// BestNode returns the eligible node with maximum residual coverage, or
// ok=false if no eligible node has positive coverage. eligible==nil means
// every node is eligible. Nodes reported ineligible are dropped permanently
// (callers use this for exhausted attention bounds, which never recover).
func (c *Collection) BestNode(eligible func(int32) bool) (node int32, cov int, ok bool) {
	c.SyncHeap()
	for len(c.pq) > 0 {
		top := c.pq[0]
		if c.dead[top.node] {
			c.pq.pop()
			continue
		}
		cur := c.cov[top.node]
		if top.cov != cur {
			// Stale entry: refresh in place.
			c.pq.pop()
			if cur > 0 {
				c.pq.push(covEntry{node: top.node, cov: cur})
			}
			continue
		}
		if cur == 0 {
			c.pq.pop()
			continue
		}
		if eligible != nil && !eligible(top.node) {
			c.dead[top.node] = true
			c.pq.pop()
			continue
		}
		return top.node, int(cur), true
	}
	return 0, 0, false
}

// Drop permanently removes a node from BestNode consideration (e.g. a node
// already chosen as a seed for this ad).
func (c *Collection) Drop(u int32) { c.dead[u] = true }

// TopNodes returns up to k eligible nodes in decreasing residual-coverage
// order (the candidates TIRM's CandidateDepth extension scores by regret
// drop). Like BestNode it refreshes stale heap entries lazily and drops
// ineligible nodes permanently; the heap is left intact. Allocation-free
// callers use TopNodesInto.
func (c *Collection) TopNodes(k int, eligible func(int32) bool) (nodes []int32, covs []int) {
	return c.TopNodesInto(k, eligible, nil, nil)
}

// TopNodesInto is TopNodes appending into caller-provided buffers (which
// may be nil) instead of allocating fresh result slices — the serving hot
// path calls it once per ad per greedy iteration, so the per-call garbage
// of the convenience form (result slices plus a dedup map) would dominate a
// warm allocation's profile. Scratch state lives on the collection;
// returned slices alias the (possibly grown) buffers.
//
// k = 1 — the paper's CandidateDepth, asked for on every greedy round — is
// BestNode plus the pop and re-push of the winner that the general loop's
// set-aside round trip performs: the same heap operations in the same
// order, so heap layout and tie-breaks match the general loop exactly (see
// TestTopOneHeapEvolution), without the dedup stamps and set-aside buffer
// that only k ≥ 2 needs.
func (c *Collection) TopNodesInto(k int, eligible func(int32) bool, nodes []int32, covs []int) ([]int32, []int) {
	if k != 1 {
		return c.topNodesLoop(k, eligible, nodes, covs)
	}
	nodes, covs = nodes[:0], covs[:0]
	if u, cov, ok := c.BestNode(eligible); ok {
		c.pq.push(c.pq.pop())
		nodes, covs = append(nodes, u), append(covs, cov)
	}
	return nodes, covs
}

// topNodesLoop is TopNodesInto for any k: pop valid entries aside until k
// distinct nodes are collected, then push them back.
func (c *Collection) topNodesLoop(k int, eligible func(int32) bool, nodes []int32, covs []int) ([]int32, []int) {
	c.SyncHeap()
	nodes, covs = nodes[:0], covs[:0]
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
		cur := c.cov[top.node]
		if top.cov != cur {
			c.pq.pop()
			if cur > 0 {
				c.pq.push(covEntry{node: top.node, cov: cur})
			}
			continue
		}
		if cur == 0 {
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
		covs = append(covs, int(cur))
	}
	for _, e := range aside {
		c.pq.push(e)
	}
	c.aside = aside[:0]
	return nodes, covs
}

// CoverNode marks all residual sets containing u as covered, decrementing
// the coverage of their other members, and returns the number of sets newly
// covered (u's residual coverage before the call). Segments are walked in
// id order, so covering order matches the historical flat-list behavior
// exactly.
//
// This is the single hottest loop of a warm allocation — every committed
// seed retires its covered sets here — so the walk itself is the
// collection's active cover kernel (see kernel.go): the sparse kernel
// prefers the inverted index's cover join (one sequential record
// stream per node, members inlined; see coverJoin), falling back to the
// arena hop for spilled sets and for segments whose join was never
// prepared — per-request θ-growth segments and hand-built collections,
// state too short-lived to amortize a join build; the bitset kernel sweeps
// packed membership words. Either way sets retire in ascending id order,
// so the covering sequence — and with it every downstream estimate — is
// unchanged.
func (c *Collection) CoverNode(u int32) int {
	c.SyncHeap()
	covered, segs := 0, c.segs
	if c.bits != nil {
		covered, segs = c.bitsetCover(u), segs[1:]
	}
	covered += sparseCoverSegs(c, u, segs)
	c.ncov += covered
	if c.cov[u] != 0 {
		panic(fmt.Sprintf("rrset: residual coverage of %d nonzero after CoverNode", u))
	}
	return covered
}

// CountAndCoverFrom counts the residual sets with id >= firstID that
// contain u, marks them covered, and returns the count. TIRM's
// UpdateEstimates uses it to re-credit already-chosen seeds with coverage
// in freshly appended samples without double-counting across seeds.
func (c *Collection) CountAndCoverFrom(u int32, firstID int) int {
	c.SyncHeap()
	covered, segs := 0, c.segs
	if c.bits != nil {
		covered, segs = c.bitsetCountFrom(u, firstID), segs[1:]
	}
	covered += sparseCountFromSegs(c, u, firstID, segs)
	c.ncov += covered
	return covered
}

// covEntry is a (possibly stale) heap record.
type covEntry struct {
	node int32
	cov  int32
}

// covHeap is a max-heap of coverage entries with concrete push/pop — the
// same sift algorithm as container/heap (so heap layout, and therefore
// tie-breaking among equal-coverage nodes, is bit-compatible with the
// historical container/heap implementation) without the interface{}
// boxing that allocated on every stale-entry refresh.
type covHeap []covEntry

func (h covHeap) less(i, j int) bool { return h[i].cov > h[j].cov }

// init establishes the heap invariant over the full slice (container/heap
// Init).
func (h covHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push appends e and sifts it up (container/heap Push).
func (h *covHeap) push(e covEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the max entry (container/heap Pop).
func (h *covHeap) pop() covEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h covHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h covHeap) down(i0, n int) {
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
