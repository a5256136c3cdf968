// Flat arena storage for RR-set families. The repo's hot structures — the
// per-ad sample held by core.Index, the coverage collections TIRM selects
// against, and the inverted node→sets indexes — all store "a growing family
// of small int32 sets". Representing that as [][]int32 costs one heap
// allocation plus a 24-byte header per set and leaves the GC millions of
// pointers to trace. SetFamily packs the same data as two flat arrays in
// CSR (compressed sparse row) form: every member of every set back to back
// in one arena, plus one offset per set. Appends touch only the arena tail,
// snapshots can serialize the arrays in bulk, and a family of ten million
// sets is two allocations instead of ten million.

package rrset

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SetFamily is an append-only family of int32 sets in CSR layout:
// set i occupies members[offsets[i]:offsets[i+1]]. The zero value is not
// usable; create with NewSetFamily or FamilyFromSets. Offsets are 32-bit, so
// an arena holds at most maxArena members (see checkArena).
//
// Appending never mutates previously written elements, so a FamilyView
// taken before an append (Prefix/Window/View) stays valid while the family
// keeps growing — appends either write past every view's length or move the
// tail to a reallocated arena, leaving the viewed prefix untouched. This is
// the property core.Index relies on to let concurrent allocations read
// stable prefixes while the sample grows.
type SetFamily struct {
	offsets []uint32 // len = Len()+1, offsets[0] == 0, non-decreasing
	members []int32  // arena of all members, set after set
}

// maxArena is the most entries one arena — a family's members or an
// Inverted's rows — may hold: every CSR offset is a uint32. One ad's sample
// at that size is 16 GB of members alone, past any machine this runs on, so
// the limit is checked where an arena grows and has no wider fallback.
const maxArena = 1<<32 - 1

// checkArena panics when n, the length an arena is about to reach, passes
// maxArena.
func checkArena(n int64) {
	if n > maxArena {
		panic(fmt.Sprintf("rrset: arena of %d entries passes the 32-bit offset limit", n))
	}
}

// NewSetFamily creates an empty family.
func NewSetFamily() *SetFamily {
	return &SetFamily{offsets: make([]uint32, 1, 64)}
}

// FamilyFromSets copies a pointer-heavy [][]int32 family into a fresh
// arena (the compatibility bridge for callers still producing slices).
func FamilyFromSets(sets [][]int32) *SetFamily {
	var total int
	for _, s := range sets {
		total += len(s)
	}
	f := &SetFamily{
		offsets: make([]uint32, 1, len(sets)+1),
		members: make([]int32, 0, total),
	}
	for _, s := range sets {
		f.Append(s)
	}
	return f
}

// Len returns the number of sets.
func (f *SetFamily) Len() int { return len(f.offsets) - 1 }

// NumMembers returns the total member count across all sets.
func (f *SetFamily) NumMembers() int64 { return int64(len(f.members)) }

// Set returns set i as a slice into the arena. The slice must not be
// mutated or appended to.
func (f *SetFamily) Set(i int) []int32 {
	return f.members[f.offsets[i]:f.offsets[i+1]]
}

// Append adds one set (copying its members into the arena).
func (f *SetFamily) Append(set []int32) {
	checkArena(int64(len(f.members)) + int64(len(set)))
	f.members = append(f.members, set...)
	f.offsets = append(f.offsets, uint32(len(f.members)))
}

// AppendFamily bulk-appends every set of g (two memmoves plus an offset
// rebase — how a drawn block joins the stream arena).
func (f *SetFamily) AppendFamily(g *SetFamily) {
	checkArena(int64(len(f.members)) + g.NumMembers())
	// Every base+off fits (checked above), so the uint32 sums are exact.
	base := uint32(len(f.members)) - g.offsets[0]
	f.members = append(f.members, g.members[g.offsets[0]:]...)
	for _, off := range g.offsets[1:] {
		f.offsets = append(f.offsets, base+off)
	}
}

// Reserve grows capacity for sets more sets and members more members, so a
// known-size bulk load appends without re-allocation.
func (f *SetFamily) Reserve(sets int, members int64) {
	checkArena(int64(len(f.members)) + members)
	if need := len(f.offsets) + sets; need > cap(f.offsets) {
		grown := make([]uint32, len(f.offsets), need)
		copy(grown, f.offsets)
		f.offsets = grown
	}
	if need := int64(len(f.members)) + members; need > int64(cap(f.members)) {
		grown := make([]int32, len(f.members), need)
		copy(grown, f.members)
		f.members = grown
	}
}

// View returns a stable view of the current sets.
func (f *SetFamily) View() FamilyView { return f.Prefix(f.Len()) }

// Prefix returns a stable view of the first k sets.
func (f *SetFamily) Prefix(k int) FamilyView { return f.Window(0, k) }

// Window returns a stable view of sets [from, to). Views survive later
// appends (see the type comment).
func (f *SetFamily) Window(from, to int) FamilyView {
	end := f.offsets[to]
	return FamilyView{
		offsets: f.offsets[from : to+1 : to+1],
		members: f.members[:end:end],
	}
}

// Sets materializes the family as [][]int32 views into the arena (nil for
// empty sets, matching the sampler's historical convention). Compatibility
// surface only — hot paths should stay in CSR.
func (f *SetFamily) Sets() [][]int32 { return f.View().Sets() }

// MemBytes returns the family's exact data footprint: 4 bytes per member
// plus 4 per offset.
func (f *SetFamily) MemBytes() int64 {
	return 4*int64(len(f.members)) + 4*int64(len(f.offsets))
}

// FamilyView is an immutable window over a SetFamily: sets [from, to) with
// local ids 0..Len()-1. Offsets stay absolute (members is the arena prefix
// up to the window's end), so taking a view is two slice headers — no
// copying, no rebasing.
type FamilyView struct {
	offsets []uint32 // len = Len()+1, absolute arena offsets
	members []int32  // arena prefix covering offsets[Len()]
}

// Len returns the number of sets in the view.
func (v FamilyView) Len() int {
	if len(v.offsets) == 0 {
		return 0
	}
	return len(v.offsets) - 1
}

// NumMembers returns the total member count across the view's sets.
func (v FamilyView) NumMembers() int64 {
	if len(v.offsets) == 0 {
		return 0
	}
	return int64(v.offsets[len(v.offsets)-1] - v.offsets[0])
}

// Set returns set i (local id) as a slice into the arena. Read-only.
func (v FamilyView) Set(i int) []int32 {
	return v.members[v.offsets[i]:v.offsets[i+1]]
}

// Sets materializes the view as [][]int32 (nil for empty sets).
func (v FamilyView) Sets() [][]int32 {
	k := v.Len()
	out := make([][]int32, k)
	for i := 0; i < k; i++ {
		if s := v.Set(i); len(s) > 0 {
			out[i] = s
		}
	}
	return out
}

// MemBytes returns the view's exact data footprint (members + offsets).
func (v FamilyView) MemBytes() int64 {
	return 4*v.NumMembers() + 4*int64(len(v.offsets))
}

// Inverted is a CSR inverted index over a set family: node u's row lists,
// ascending by id, the sets containing u. Built in one counting pass — no
// per-node append lists, two allocations. Immutable once built; growth
// replaces the whole index (cheap next to the reverse-BFS cost of sampling
// the new sets, and it gives concurrent readers a stable snapshot for free).
//
// A row takes one of two forms, fixed at construction. Joined — every index
// BuildInverted returns over fewer than LazyMinNodes nodes while each id
// fits a record header (below joinIDLimit, 2^27) — the row is the cover
// join: one record per set, its id and, up to joinInlineCap, its members
// other than the row's own node (see the record layout below), so the eager
// cover walks stream ids and members sequentially and the index keeps no
// separate id rows. Otherwise the row is the plain ascending ids, one word
// per membership, and walks hop id → offsets → arena: the form of every
// index over LazyMinNodes nodes or more, whose collections start lazy and
// read ids only (lazy.go), of short-lived growth segments (segStore.grow)
// and of any index whose ids reach 2^27. The optional membership bitmap
// (coverBits) and openings (opening) are derived data, each built at most
// once behind a lock, so concurrent readers stay race-free — and each dies
// with the Inverted it describes.
type Inverted struct {
	off    []uint32 // len = n+1: node u's row is rows[off[u]:off[u+1]]
	rows   []int32  // records when joined, set ids otherwise
	joined bool
	src    FamilyView
	base   int32

	bitsMu sync.Mutex // serializes the one-time bitmap build
	bits   atomic.Pointer[coverBits]

	openMu   sync.Mutex // guards openings and serializes their builds
	openings []*opening // most recently used first, at most OpeningCap
}

// BuildInverted indexes v over an n-node universe. Set i of the view gets
// id base+i, letting a segment's local view carry global stream ids. The
// index is joined below LazyMinNodes nodes whenever its ids fit a record
// header, and holds id rows otherwise — the row form follows the line at
// which Reset starts collections lazy, since a lazy walk reads set ids and
// nothing else. It carries the membership bitmap when PrepareCover's
// density rule asks for one.
func BuildInverted(n int, v FamilyView, base int32) *Inverted {
	ix := buildInverted(n, v, base, n < LazyMinNodes && int64(base)+int64(v.Len()) <= joinIDLimit)
	ix.PrepareCover()
	return ix
}

// joinRangeBlocks is the fewest stream blocks per set range buildInverted
// splits a view into: below it the build is one range, which keeps growth
// segments and small indexes on the caller's goroutine.
const joinRangeBlocks = 64

// buildInverted is the one counting-pass builder of both row forms: each
// set adds a record to every member's row — |R| words (header and the other
// members) when joined and inline, 1 word otherwise. The row store, like a
// family's arena, holds at most maxArena words. A view of many blocks is
// built as one contiguous set range per worker (see buildInvertedRanges).
func buildInverted(n int, v FamilyView, base int32, joined bool) *Inverted {
	return buildInvertedRanges(n, v, base, joined, samplingWorkers(v.Len()/(joinRangeBlocks*StreamBlockSize)))
}

// buildInvertedRanges builds the index over ranges contiguous set ranges
// through ParallelFor. Each range counts its own words per node into its
// own array; the row offsets are prefix sums over (node, range), so within
// a row every range's records follow those of the ranges before it, in id
// order; then each range scatters its sets from its own cursors. off and
// rows are therefore the same bytes for any range count.
func buildInvertedRanges(n int, v FamilyView, base int32, joined bool, ranges int) *Inverted {
	k := v.Len()
	span := func(r int) (from, to int) { return k * r / ranges, k * (r + 1) / ranges }
	// rs[r].cur[u] counts range r's words in u's row, then is its cursor
	// there; words is the range's total, summed wide so the limit check sees
	// what a 32-bit count would wrap.
	type rangeRows struct {
		cur   []uint32
		words int64
	}
	rs := make([]rangeRows, ranges)
	ParallelFor(ranges, 0, func(r int) {
		from, to := span(r)
		cnt := make([]uint32, n)
		rs[r] = rangeRows{cur: cnt, words: countRange(cnt, v, from, to, joined)}
	})
	var total int64
	for _, r := range rs {
		total += r.words
	}
	checkArena(total)
	off := make([]uint32, n+1)
	var at uint32
	for u := 0; u < n; u++ {
		off[u] = at
		for _, r := range rs {
			r.cur[u], at = at, at+r.cur[u]
		}
	}
	off[n] = at
	rows := make([]int32, at)
	ParallelFor(ranges, 0, func(r int) {
		from, to := span(r)
		scatterRange(rows, rs[r].cur, v, from, to, base, joined)
	})
	return &Inverted{off: off, rows: rows, joined: joined, src: v, base: base}
}

// countRange adds the words each of v's sets [from, to) puts in its
// members' rows to cnt, and returns their total.
func countRange(cnt []uint32, v FamilyView, from, to int, joined bool) int64 {
	var words int64
	for i := from; i < to; i++ {
		set := v.Set(i)
		rec := uint32(1)
		if joined && len(set) <= joinInlineCap {
			rec = uint32(len(set))
		}
		for _, u := range set {
			cnt[u] += rec
		}
		words += int64(rec) * int64(len(set))
	}
	return words
}

// scatterRange writes the records of v's sets [from, to) — global ids base
// onward — into rows at each member's cursor, advancing the cursors.
func scatterRange(rows []int32, cur []uint32, v FamilyView, from, to int, base int32, joined bool) {
	for i := from; i < to; i++ {
		set := v.Set(i)
		id := base + int32(i)
		if !joined {
			for _, u := range set {
				rows[cur[u]] = id
				cur[u]++
			}
			continue
		}
		head := id << joinSizeBits
		if len(set) > joinInlineCap {
			for _, u := range set {
				rows[cur[u]] = head | joinSpill
				cur[u]++
			}
			continue
		}
		head |= int32(len(set) - 1)
		for j, u := range set {
			p := cur[u]
			rows[p] = head
			copy(rows[p+1:], set[:j])
			copy(rows[p+1+uint32(j):], set[j+1:])
			cur[u] = p + uint32(len(set))
		}
	}
}

// NumNodes returns the node-universe size.
func (ix *Inverted) NumNodes() int { return len(ix.off) - 1 }

// row returns u's row: its record stream when joined, its ids otherwise.
func (ix *Inverted) row(u int32) []int32 { return ix.rows[ix.off[u]:ix.off[u+1]] }

// next returns the position of the entry after the one at p in one of the
// index's rows: the next id, or past a joined record's inline members.
func (ix *Inverted) next(row []int32, p int) int {
	if sz := int(row[p] & joinSizeMask); ix.joined && sz != joinSpill {
		return p + 1 + sz
	}
	return p + 1
}

// id returns the set id of the row entry at p.
func (ix *Inverted) id(row []int32, p int) int32 {
	if ix.joined {
		return row[p] >> joinSizeBits
	}
	return row[p]
}

// IDs returns the ids of the sets containing u, ascending. Read-only; on a
// joined index a fresh slice decoded from the record headers.
func (ix *Inverted) IDs(u int32) []int32 {
	row := ix.row(u)
	if !ix.joined {
		return row
	}
	var ids []int32
	for p := 0; p < len(row); p = ix.next(row, p) {
		ids = append(ids, ix.id(row, p))
	}
	return ids
}

// Count returns how many sets contain u (on a joined index, by walking the
// record headers).
func (ix *Inverted) Count(u int32) int {
	row := ix.row(u)
	if !ix.joined {
		return len(row)
	}
	c := 0
	for p := 0; p < len(row); p = ix.next(row, p) {
		c++
	}
	return c
}

// MemBytes returns the index's exact data footprint: its rows and row
// offsets, plus the membership bitmap and the stored openings once built
// (this never triggers the builds).
func (ix *Inverted) MemBytes() int64 {
	total := 4*int64(len(ix.rows)) + 4*int64(len(ix.off))
	if b := ix.bits.Load(); b != nil {
		total += b.memBytes()
	}
	ix.openMu.Lock()
	for _, o := range ix.openings {
		total += o.memBytes()
	}
	ix.openMu.Unlock()
	return total
}

// OpeningCap bounds the openings one Inverted stores. An opening is keyed
// by view length, which a request derives from its θ options alone, so
// steady traffic repeats one or two lengths per index; a length past the
// cap evicts the least recently used one, and a miss costs what every
// request paid before openings existed — one counting pass over the view's
// members and one heap build.
// The stored openings cost at most OpeningCap·12 bytes per node
// (TestOpeningsBounded).
const OpeningCap = 4

// opening is the state every fresh warm-start collection over the first k
// sets of an Inverted begins from — a pure function of (index, k), so it is
// built once and borrowed or copied by each collection instead of being
// recomputed per request. Immutable once built; derived data of the
// Inverted exactly like coverBits.
//
// The two halves are built separately because not every collection needs
// both: cut is needed by all of them, the heap only by those that select
// (a shard-side collection is ranked by its coordinator and never syncs
// its own heap), so the heap half waits for the first SyncHeap that asks.
type opening struct {
	k int
	// cut[u] is how many of the index's first k sets contain u — how many of
	// u's row entries hold their ids (rows are ascending, so those entries
	// are a prefix): both u's initial residual coverage and, on an id-row
	// index, the row clip aligning the index with a k-set view.
	cut []int32

	heapOnce sync.Once
	heap     atomic.Pointer[MaxHeap[int32]]
}

// opening returns the stored opening for view length k, building and
// storing it on a miss (built reports which). A build counts the members of
// the first k sets (clipInverted) — one sequential pass that reads no row —
// and leaves the heap for later (candidateHeap). Builds hold openMu, so
// concurrent requests for one length wait for a single build rather than
// repeating it.
func (ix *Inverted) opening(k int) (o *opening, built bool) {
	ix.openMu.Lock()
	defer ix.openMu.Unlock()
	for i, o := range ix.openings {
		if o.k == k {
			copy(ix.openings[1:i+1], ix.openings[:i])
			ix.openings[0] = o
			return o, false
		}
	}
	o = &opening{k: k, cut: clipInverted(ix, k)}
	if len(ix.openings) < OpeningCap {
		ix.openings = append(ix.openings, nil)
	}
	copy(ix.openings[1:], ix.openings)
	ix.openings[0] = o
	return o, true
}

// candidateHeap returns the candidate heap of a fresh collection over the
// opening — the array candidates.sync leaves over cut with no node dropped
// — building it on first use through that same sync, so a collection that
// copies it holds exactly the heap it would have built itself. Read-only.
func (o *opening) candidateHeap() MaxHeap[int32] {
	o.heapOnce.Do(func() {
		live := 0
		for _, c := range o.cut {
			if c > 0 {
				live++
			}
		}
		c := candidates[int32]{pq: make(MaxHeap[int32], 0, live), dead: make([]bool, len(o.cut)), stale: true}
		c.sync(o.cut)
		o.heap.Store(&c.pq)
	})
	return *o.heap.Load()
}

// memBytes returns the opening's exact data footprint: the cut vector plus
// the heap once built (never triggers the build).
func (o *opening) memBytes() int64 {
	total := 4 * int64(len(o.cut))
	if h := o.heap.Load(); h != nil {
		total += 8 * int64(len(*h))
	}
	return total
}

// joinInlineCap bounds the member count a cover-join record stores inline.
// Covered-set size distributions are dominated by tiny sets (the measured
// FLIXSTER warm workload covers 82% sets of ≤4 members), which is exactly
// where a random arena fetch per set costs more than the members
// themselves; sets above the cap spill to the arena, where fetching is
// amortized over many members anyway. The cap also bounds join memory at
// cap·memberships in the worst (all-tiny) case.
const joinInlineCap = 8

// The cover join is the joined index's row layout: node u's row is a flat
// stream of records [id<<4 | |R|−1, R∖{u} in set order] (or the lone header
// [id<<4 | joinSpill] past the inline cap), ascending by id — an inline
// membership costs |R| words, a spilled one 1. A record leaves out u itself:
// the walk covering u knows u, so it takes u's own decrement once per inline
// record (a spilled record reads the arena, which holds u). CoverNode and the
// delta and weighted commit walks read it instead of hopping id → offsets →
// arena per covered set: the hot commit loop becomes one sequential scan,
// which on the measured serving workload is the difference between a cache
// miss per tiny set and streaming bandwidth. Records carry global ids, and
// rows are ascending, so a collection clips a too-long row by breaking at its
// segment's end id — no cut vector needed.
//
// A record's header is one word, id<<joinSizeBits | size: the low bits hold
// the inline member count |R|−1 (0..joinInlineCap−1; a singleton's record is
// its lone header) or joinSpill, and the set id sits above them. An id must
// therefore stay below joinIDLimit for the header to remain a non-negative
// int32.
const (
	joinSizeBits = 4
	joinSizeMask = 1<<joinSizeBits - 1
	// joinSpill marks a spilled record: the set's members stay in the arena.
	joinSpill   = joinSizeMask
	joinIDLimit = 1 << (31 - joinSizeBits)
)

// PrepareCover applies the density rule that chooses the cover kernel:
// it builds the packed membership bitmap the bitset kernel sweeps (see
// coverBits) when 64·memberships ≥ n·k, and a collection Reset over this
// index runs bitset exactly when the bitmap exists. The bitmap costs
// n·⌈k/64⌉ words, so the rule builds it exactly when it is at most twice
// the size of one id per membership — which is also the regime where
// AND-NOT word sweeps beat per-membership scans. Sparse samples — every
// shipped dataset at 600 nodes and up, see DESIGN.md §6.7 — skip the build
// and their collections run the sparse kernel. BuildInverted applies it to
// every index it returns, so a later call is a no-op. Idempotent and safe
// for concurrent use.
func (ix *Inverted) PrepareCover() {
	n, k := ix.NumNodes(), ix.src.Len()
	if k > 0 && n > 0 && ix.src.NumMembers()*64 >= int64(n)*int64(k) {
		ix.coverBits()
	}
}

// PrepareCoverBits builds the packed membership bitmap unconditionally,
// paying the dense representation even where the density rule would not —
// with Collection.UseKernel, the override the kernel-equivalence tests and
// the benchmark's sweep rung use; production code never calls it.
// Idempotent and safe for concurrent use.
func (ix *Inverted) PrepareCoverBits() { ix.coverBits() }

// preparedBits returns the membership bitmap if a Prepare call has built
// it, nil otherwise — never constructs.
func (ix *Inverted) preparedBits() *coverBits { return ix.bits.Load() }

// coverBits is per-node RR-set membership as packed words: node u's row is
// wpr uint64 words in which bit i (local set id) is set iff set base+i
// contains u — the dense mirror of the index's rows that the bitset coverage
// kernel AND-NOTs against a covered-set mask instead of scanning ids one at
// a time. Immutable once built, derived data of the Inverted.
type coverBits struct {
	words []uint64 // n rows of wpr words each
	wpr   int      // words per row = ⌈sets/64⌉
	sets  int      // number of sets the bitmap covers
}

// row returns u's membership words.
func (b *coverBits) row(u int32) []uint64 {
	s := int(u) * b.wpr
	return b.words[s : s+b.wpr]
}

// memBytes returns the bitmap's exact data footprint.
func (b *coverBits) memBytes() int64 { return 8 * int64(len(b.words)) }

// coverBits returns the membership bitmap, building it at most once (nil
// for an empty index). Safe for concurrent use: readers load an atomic
// pointer, the build is serialized by bitsMu.
func (ix *Inverted) coverBits() *coverBits {
	if b := ix.bits.Load(); b != nil {
		return b
	}
	k := ix.src.Len()
	if k == 0 || ix.src.NumMembers() == 0 {
		return nil
	}
	ix.bitsMu.Lock()
	defer ix.bitsMu.Unlock()
	if b := ix.bits.Load(); b != nil {
		return b
	}
	n := ix.NumNodes()
	wpr := (k + 63) / 64
	words := make([]uint64, n*wpr)
	for u := int32(0); u < int32(n); u++ {
		bits, row := words[int(u)*wpr:int(u+1)*wpr], ix.row(u)
		for p := 0; p < len(row); p = ix.next(row, p) {
			lb := uint32(ix.id(row, p) - ix.base)
			bits[lb>>6] |= 1 << (lb & 63)
		}
	}
	b := &coverBits{words: words, wpr: wpr, sets: k}
	ix.bits.Store(b)
	return b
}
