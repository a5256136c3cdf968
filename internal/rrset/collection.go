package rrset

import (
	"fmt"
	mbits "math/bits"
)

// covSegment is one contiguous run of sets inside a coverage collection:
// a CSR view of the sets (local ids 0..view.Len()-1, global ids start at
// base) plus a CSR inverted index over them. The first segment of a
// warm-start collection shares its view and inverted index with the
// long-lived core.Index; growth segments own both. A shared index usually
// covers more sets than the view: a joined row is clipped by breaking at
// the segment's end id, an id row by cut, which limits each node's row to
// its first cut[u] ids without copying (rows are ascending, so a prefix is
// exactly "ids below the view's length"). cut is borrowed from the index's
// opening for the view's length and read-only.
type covSegment struct {
	base int32
	view FamilyView
	inv  *Inverted
	cut  []int32
}

// idsOf returns the (global, ascending) ids of this segment's sets that
// contain u. Id-row indexes only: the eager walks read a joined row's
// records instead, and the lazy walks, which read ids and nothing else,
// run over id rows alone.
func (s *covSegment) idsOf(u int32) []int32 {
	ids := s.inv.row(u)
	if s.cut != nil {
		ids = ids[:s.cut[u]]
	}
	return ids
}

// set returns the members of the set with global id.
func (s *covSegment) set(id int32) []int32 { return s.view.Set(int(id - s.base)) }

// end returns the first global id past this segment.
func (s *covSegment) end() int { return int(s.base) + s.view.Len() }

// memBytes is the segment's exact data footprint: the view plus the
// inverted index with everything derived from it (a borrowed cut vector is
// one of the index's openings, counted there). For a shared segment this
// counts the index's arrays once per collection holding them; callers
// wanting process-level accounting should count the core.Index separately.
func (s *covSegment) memBytes() int64 {
	return s.view.MemBytes() + s.inv.MemBytes()
}

// clipInverted computes, per node, how many of inv's row entries hold ids
// among its first k sets — the cut vector aligning a shared inverted index
// with a k-set view, and each node's initial coverage. Each set adds one
// entry to each member's row, so the cut is a count over the members of
// inv.src's first k sets: one sequential pass over them, the same vector
// for a joined index and an id-row one. Only an opening's builder calls it
// (Inverted.opening).
func clipInverted(inv *Inverted, k int) []int32 {
	cut := make([]int32, inv.NumNodes())
	if k = min(k, inv.src.Len()); k > 0 {
		for _, u := range inv.src.members[inv.src.offsets[0]:inv.src.offsets[k]] {
			cut[u]++
		}
	}
	return cut
}

// cleared returns buf resized to n with every element zero, reusing the
// backing array when it is large enough (the clear compiles to a memclr).
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// segStore is the score-independent half of a coverage collection, shared
// by Collection and WeightedCollection: the node universe, the CSR segments
// and their set count.
type segStore struct {
	n       int
	segs    []covSegment
	numSets int
	built   bool // the last reset built its opening instead of finding it stored
}

// N returns the node-universe size.
func (s *segStore) N() int { return s.n }

// NumSets returns the total number of sets ever added.
func (s *segStore) NumSets() int { return s.numSets }

// OpeningBuilt reports whether the last Reset had to build its opening on
// the inverted index (no stored one matched the view's length) rather than
// borrow one — a report for cache-effectiveness metrics, never an input.
func (s *segStore) OpeningBuilt() bool { return s.built }

// reset points the store at one shared base-0 segment — a sample view and
// its prebuilt inverted index, rows clipped to the view by the cut vector
// borrowed from the index's opening for the view's length — and returns
// that opening (cut[u] is also u's membership count, the owner's initial
// scores).
func (s *segStore) reset(n int, v FamilyView, inv *Inverted) *opening {
	s.n, s.numSets = n, v.Len()
	o, built := inv.opening(s.numSets)
	s.built = built
	s.segs = append(s.segs[:0], covSegment{base: 0, view: v, inv: inv, cut: o.cut})
	return o
}

// grow appends a non-empty view as one owned segment and returns the
// id-row index built over it in a single counting pass: a growth segment
// lives for one run, too short to amortize the records' member copies, and
// never runs the bitset kernel.
func (s *segStore) grow(v FamilyView) *Inverted {
	base := int32(s.numSets)
	inv := buildInverted(s.n, v, base, false)
	s.segs = append(s.segs, covSegment{base: base, view: v, inv: inv})
	s.numSets += v.Len()
	return inv
}

// memBytes is the exact data footprint of the segments.
func (s *segStore) memBytes() int64 {
	var total int64
	for i := range s.segs {
		total += s.segs[i].memBytes()
	}
	return total
}

// release drops every reference into index-owned memory: segment slots
// are zeroed so the retained backing array holds no stale views,
// inverted-index pointers or borrowed cut vectors.
func (s *segStore) release() {
	for i := range s.segs {
		s.segs[i] = covSegment{}
	}
	s.segs = s.segs[:0]
	s.numSets = 0
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
// Sets live in flat CSR segments (see covSegment): per-set state is one bit
// (the covered bitmap), per-node state two flat arrays and the heap, so a
// collection over millions of sets is a handful of allocations and
// GC-quiet, and the cover walk's per-ad state stays small enough for the
// cache at paper scale (θ = 200 000 sets is 25 KB of covered bits).
//
// The candidate heap (see candidates) is built lazily: construction, Reset,
// and AddFamily only mark it stale, and the rebuild happens on the first
// operation that observes or depends on it. After a Reset that rebuild is
// a copy of the heap stored with the inverted index's opening.
//
// The eager sparse walk (kernel.go) serves every operation. A warm-start
// collection (Reset, NewCollectionFromFamily) may start on one of two
// faster cover paths, which serve CoverNode only: the bitset sweep, exactly
// when the shared inverted index carries a membership bitmap
// (Inverted.PrepareCover decides; Kernel reports it), or else, over an
// id-row index of at least LazyMinNodes nodes, lazy counts — covers
// only mark sets, and a node's residual coverage is recounted from its row
// when it is read (lazy.go). Growth, credit, a delta capture or UseKernel
// first hands the collection to the eager sparse walk for the rest of its
// run (materialize). Every observable count is exact either way.
type Collection struct {
	segStore
	candidates[int32]
	covered []uint64 // bit id&63 of word id>>6 set: set id already covered by a chosen seed
	// cov is node -> residual coverage (uncovered sets containing it): kept
	// current by every cover on an eager collection, a cache of exact
	// counts on a lazy one (see lazy.go).
	cov  []int32
	ncov int // number of covered sets
	// bits is the first segment's membership bitmap; non-nil means CoverNode
	// runs the bitset sweep, and covered's bits past the view's set count
	// are pre-set (see UseKernel).
	bits *coverBits

	// Lazy state (candidates.lazy non-nil): counted[u] == countGen means
	// cov[u] was recounted since the last cover. Scratch, like the dedup
	// stamps: MemBytes leaves counted out. A stamp is one byte, not four: a pooled workspace keeps
	// its stamps between runs, and at DBLP's 317K nodes four-byte ones held
	// 6.3 MB more per parked workspace, enough to move the GC's goal across
	// a restart; a wrap every 255 covers clears n bytes instead.
	counted  []uint8
	countGen uint8
}

// NewCollection creates an empty index over n nodes.
func NewCollection(n int) *Collection {
	c := &Collection{cov: make([]int32, n)}
	c.n = n
	c.candidates.reset(n, nil)
	return c
}

// SyncHeap performs the deferred heap rebuild, if one is pending. Every
// operation that needs the heap calls it, so callers never have to; a
// caller that sets many collections up in parallel calls it there to pay
// the O(n) build on its set-up workers rather than in its first query. The
// heap it builds is the one that query would have built.
func (c *Collection) SyncHeap() { c.sync(c.cov) }

// MemBytes reports the index's exact resident footprint: CSR member
// arenas, CSR inverted indexes, coverage counters, the covered bitmap (8
// bytes per 64 sets), and live heap entries. TIRM reports it for the
// paper's Table 4 (memory usage), measuring the structure that actually
// dominates RR-set algorithms' memory. Shared segments (warm starts over a core.Index) count the shared
// arrays here too — the footprint reachable from this collection.
//
// Scratch stamps — the top-k dedup stamps and a lazy collection's recount
// stamps, a byte a node — are left out, so lazy and eager runs report the
// same footprint.
func (c *Collection) MemBytes() int64 {
	return c.memBytes() +
		int64(len(c.covered))*8 + // covered bitmap
		int64(c.n)*5 + // cov counters + dead flags
		int64(len(c.pq))*8
}

// Kernel returns the identifier of the collection's active cover kernel.
func (c *Collection) Kernel() KernelID {
	if c.bits != nil {
		return KernelBitset
	}
	return KernelSparse
}

// release is segStore.release plus the kernel: the membership bitmap
// belongs to the index.
func (c *Collection) release() {
	c.segStore.release()
	c.bits = nil
	c.lazy = nil
}

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
// next query needs it. A lazy collection turns eager first (materialize):
// growth adds to every node's count.
func (c *Collection) AddFamily(v FamilyView) {
	k := v.Len()
	if k == 0 {
		return
	}
	c.materialize()
	inv := c.grow(v)
	c.covered = append(c.covered, make([]uint64, (c.numSets+63)/64-len(c.covered))...)
	for u := range c.cov {
		c.cov[u] += int32(inv.Count(int32(u)))
	}
	c.invalidate()
}

// Reset reinitializes c as a warm-start collection over a shared sample
// view and its prebuilt inverted index — the same state
// NewCollectionFromFamily constructs, but recycling every backing array
// (coverage counters, covered bitmap, heap and scratch buffers), so a
// steady-state reset allocates nothing. The opening state — row clip,
// initial coverage, initial heap — comes from the index's opening for the
// view's length (see opening): computed on the first Reset at that length,
// borrowed and copied by every later one. All state from the previous run,
// including views of a previous index, is dropped. inv must satisfy the
// same prefix contract as in NewCollectionFromFamily. A fresh
// single-segment collection meets every UseKernel precondition, so Reset
// activates the bitset sweep exactly when inv carries a bitmap covering
// the view; that collection copies the opening's cut into its counters, as
// does a sparse one over fewer than LazyMinNodes nodes or over a cover-join
// index. A sparse collection over an id-row index of more nodes — the form
// BuildInverted gives every index that large — starts lazy and copies
// nothing: while no set is covered, a node's count is its cut entry (see
// lazy.go).
func (c *Collection) Reset(n int, v FamilyView, inv *Inverted) {
	o := c.segStore.reset(n, v, inv)
	c.candidates.reset(n, o)
	c.ncov = 0
	c.covered = cleared(c.covered, (v.Len()+63)/64)
	if cap(c.cov) < n {
		c.cov = make([]int32, n)
	}
	c.cov = c.cov[:n]
	if c.UseKernel(KernelBitset) == KernelBitset || n < LazyMinNodes || inv.joined {
		copy(c.cov, o.cut)
		return
	}
	c.startLazy()
}

// UseKernel overrides the kernel Reset chose and returns the kernel
// actually active afterwards — the hook the kernel-equivalence tests and
// the benchmark's sweep rung use to run both kernels over one sample;
// production code never calls it. It first hands the collection to the
// eager sparse walk (materialize). Requesting KernelBitset then succeeds
// only when the collection is a fresh warm-start over one shared base-0
// segment whose inverted index has its membership bitmap built
// (PrepareCover's density rule or PrepareCoverBits) and no set has been
// covered yet; otherwise — counter collections, hand-grown collections,
// indexes without a bitmap, mid-run switches — the collection runs sparse.
// Call it right after Reset / NewCollectionFromFamily, before any cover
// operation. Activation allocates nothing.
func (c *Collection) UseKernel(id KernelID) KernelID {
	c.materialize()
	if id != KernelBitset || len(c.segs) != 1 || c.segs[0].base != 0 || c.ncov != 0 {
		return KernelSparse
	}
	cb := c.segs[0].inv.preparedBits()
	if cb == nil || cb.sets < c.numSets {
		return KernelSparse
	}
	// Pre-set the bits past the view's set count so the sweep needs no
	// tail masking: ids ≥ numSets read as already covered until
	// materialize clears them.
	if r := uint(c.numSets) & 63; r != 0 {
		c.covered[len(c.covered)-1] |= ^uint64(0) << r
	}
	c.bits = cb
	return KernelBitset
}

// materialize is the one way back from the fast cover paths to the eager
// sparse walk, for the rest of the run; a no-op on an eager sparse
// collection. It ends the bitset sweep, clearing the bits UseKernel set
// past the view's set count before a growth segment can land there (the
// sweep keeps every count current, so nothing else changes). It turns a
// lazy collection eager: cov becomes the opening's cut minus one per
// member of every covered set, read in id order from the view's arena —
// the vector the eager walk would have kept.
func (c *Collection) materialize() {
	if c.bits != nil {
		c.bits = nil
		if r := uint(c.numSets) & 63; r != 0 {
			c.covered[len(c.covered)-1] &^= ^uint64(0) << r
		}
	}
	if c.lazy == nil {
		return
	}
	c.lazy = nil
	seg := &c.segs[0]
	copy(c.cov, seg.cut)
	if c.ncov == 0 {
		return
	}
	cov, offs, mem := c.cov, seg.view.offsets, seg.view.members
	for w, word := range c.covered {
		for word != 0 {
			id := w<<6 + mbits.TrailingZeros64(word)
			word &= word - 1
			for _, x := range mem[offs[id]:offs[id+1]] {
				cov[x]--
			}
		}
	}
}

// NewCollectionFromFamily builds a collection over a prebuilt sample view
// and its prebuilt inverted index, the warm-start fast path of
// core.AllocateFromIndex: construction copies O(n) state from inv's
// opening for the view's length — built, the first time inv is opened at
// that length, by one counting pass over the view's members — instead of
// building per-membership state. inv must
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
// already-chosen seeds. On a lazy collection it recounts u first when a
// cover has happened since u's last count, so the value is always exact.
func (c *Collection) Coverage(u int32) int {
	if c.lazy != nil {
		c.recount(u)
	}
	return int(c.cov[u])
}

// BestNode returns the eligible node with maximum residual coverage, or
// ok=false if no eligible node has positive coverage. eligible==nil means
// every node is eligible. Nodes reported ineligible are dropped permanently
// (callers use this for exhausted attention bounds, which never recover).
func (c *Collection) BestNode(eligible func(int32) bool) (node int32, cov int, ok bool) {
	u, s, ok := c.best(c.cov, 0, eligible)
	return u, int(s), ok
}

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
// returned slices alias the (possibly grown) buffers. k = 1 — the paper's
// CandidateDepth, asked for on every greedy round — takes a shorter path
// through the same heap operations (see candidates.topInto).
func (c *Collection) TopNodesInto(k int, eligible func(int32) bool, nodes []int32, covs []int) ([]int32, []int) {
	nodes, covs = c.topInto(k, c.cov, 0, eligible, nodes), covs[:0]
	for _, u := range nodes {
		covs = append(covs, c.Coverage(u))
	}
	return nodes, covs
}

// CoverNode marks all residual sets containing u as covered, decrementing
// the coverage of their other members, and returns the number of sets newly
// covered (u's residual coverage before the call). Segments are walked in
// id order, so covering order matches the historical flat-list behavior
// exactly.
//
// This is the single hottest loop of a warm allocation — every committed
// seed retires its covered sets here — and the one operation the fast
// cover paths serve. The eager sparse kernel (see kernel.go) walks a
// joined index's cover-join rows (one sequential record stream per node,
// members inlined; see joinInlineCap), hopping to the arena for spilled
// sets and for id-row segments — per-request θ-growth segments,
// hand-built collections, and indexes over LazyMinNodes nodes or more once
// materialize has turned their collection eager.
// The bitset sweep reads packed membership words over the one segment it
// runs on. A lazy collection only marks the sets (lazyCover): the other
// members' counts are recounted when read, and come out as the decrements
// would have left them. Every path retires sets in ascending id order, so
// the covering sequence — and with it every downstream estimate — is
// unchanged.
func (c *Collection) CoverNode(u int32) int {
	c.SyncHeap()
	if c.lazy != nil {
		return c.lazyCover(u)
	}
	var covered int
	if c.bits != nil {
		covered = c.bitsetCover(u)
	} else {
		covered = sparseCoverSegs(c, u, c.segs)
	}
	c.ncov += covered
	if c.cov[u] != 0 {
		panic(fmt.Sprintf("rrset: residual coverage of %d nonzero after CoverNode", u))
	}
	return covered
}

// CountAndCoverFrom counts the residual sets with id >= firstID that
// contain u, marks them covered, and returns the count. TIRM's
// UpdateEstimates uses it to re-credit already-chosen seeds with coverage
// in freshly appended samples without double-counting across seeds. It
// runs the eager sparse walk (materialize first).
func (c *Collection) CountAndCoverFrom(u int32, firstID int) int {
	c.materialize()
	c.SyncHeap()
	covered := sparseDeltaSegs(c, u, firstID, c.segs, nil)
	c.ncov += covered
	return covered
}
