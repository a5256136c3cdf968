// Lazy residual coverage: how a warm-start Collection keeps its counts.
//
// The candidate heap of Algorithm 3 only ever reads the residual coverage
// of the node at its top, yet the eager cover walk (sparseCoverSegs) keeps
// every node's count current: each covered set decrements all its members.
// A lazy collection instead treats cov as a cache of exact counts. Its
// cover walk (lazyCover) only marks the covered sets, and a node's count
// is recounted from its own row — its ids below the opening's cut whose
// covered bit is clear — when someone is about to read it: the
// heap's top in candidates.settle, every node before a rebuild from scores
// in candidates.sync, and Coverage / TopNodesInto's returned counts. The
// heap compares only exact counts either way, so it performs the same pops
// and pushes in the same order, and every tie-break and estimate is the
// eager one.
//
// Laziness is not a kernel. It is the state of one run of a collection
// that Reset opened over one shared segment on the sparse kernel, over an
// id-row index of at least LazyMinNodes nodes — the form BuildInverted
// gives every index that large, because both lazy walks read set ids and
// nothing else; bitset, counter, hand-grown, cover-join and smaller
// collections are eager from the start. Like the bitset
// sweep it serves CoverNode only: anything that needs the full vector
// turns a lazy collection eager for the rest of its run, exactly, through
// materialize — growth (AddFamily), credit (CountAndCoverFrom), the delta
// captures (CoverNodeDelta, CountAndCoverFromDelta — so a shard owner pays
// one cut copy at its first commit) and UseKernel — and the eager walks
// then hop id → arena over the same rows. Nothing else does: no
// rule weighs recount words against skipped decrements, because no
// instance that starts lazy has been measured to lose by it
// (EXPERIMENTS.md).

package rrset

// LazyMinNodes is the smallest node universe a collection starts lazy
// over. What laziness saves is the eager walk's decrements, random writes
// into the 4n-byte count vector; what it pays is sequential row words.
// Below 2^16 nodes (256 KB of counts) the vector stays in cache and a
// decrement costs about what a row word does, so recounting cannot win:
// lazy, the 30 000-node FLIXSTER and its 600-node cut read slower
// allocation tails (EXPERIMENTS.md).
const LazyMinNodes = 1 << 16

// lazyCover is CoverNode on a lazy collection: it walks u's ids in the
// one shared segment and marks each set it newly covers, moving no count,
// then ages every cached count. It returns the sets covered.
func (c *Collection) lazyCover(u int32) int {
	cvd := c.covered
	covered := 0
	for _, id := range c.segs[0].idsOf(u) {
		bit := uint64(1) << (uint(id) & 63)
		if cvd[id>>6]&bit != 0 {
			continue
		}
		cvd[id>>6] |= bit
		covered++
	}
	c.ncov += covered
	if covered > 0 {
		c.nextGen()
		if len(c.counted) < c.n {
			c.counted = make([]uint8, c.n)
		}
	}
	if c.ncov > 0 {
		// Every set holding u is covered now.
		c.cov[u], c.counted[u] = 0, c.countGen
	}
	return covered
}

// startLazy makes a collection Reset has just opened on the sparse kernel,
// over an id-row index, lazy: counts are the opening's cut until the first
// cover.
func (c *Collection) startLazy() {
	c.lazy = c
	c.nextGen()
}

// nextGen moves the recount generation, so every cached count goes stale;
// a wrap clears the stamps.
func (c *Collection) nextGen() {
	if c.countGen++; c.countGen == 0 {
		clear(c.counted)
		c.countGen = 1
	}
}

// recount makes cov[u] exact on a lazy collection. While nothing is
// covered it is u's opening count; after that, unless u was recounted
// since the last cover, it is the number of u's ids in the segment whose
// set is not covered.
func (c *Collection) recount(u int32) {
	seg := &c.segs[0]
	if c.ncov == 0 {
		c.cov[u] = seg.cut[u]
		return
	}
	if c.counted[u] == c.countGen {
		return
	}
	c.counted[u] = c.countGen
	cvd := c.covered
	left := int32(0)
	for _, id := range seg.idsOf(u) {
		left += int32(^cvd[id>>6] >> (uint(id) & 63) & 1)
	}
	c.cov[u] = left
}

// recountAll makes every count exact (a rebuild from scores reads them
// all).
func (c *Collection) recountAll() {
	for u := range c.cov {
		c.recount(int32(u))
	}
}
