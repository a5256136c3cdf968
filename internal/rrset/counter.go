// Counter mode and delta-capturing covers: the two halves of sharded
// coverage state. An ad's sample lives whole on the shard that owns its
// stream (see StreamPartition), which runs an ordinary Collection over it
// and *captures* each cover's sparse decrement vector (CoverNodeDelta /
// CountAndCoverFromDelta) so it can be shipped; the coordinator holds a
// segment-less "counter" Collection per ad whose counters are maintained
// purely by applying those integer deltas (NewCounterCollection /
// AddCounts / ApplyCover), and ranks candidates across ads from them.
//
// The counter collection runs the same candidate heap as the ordinary
// Collection (candidates), and every mutation syncs the lazily rebuilt heap
// at the points CoverNode/CountAndCoverFrom/AddFamily do — so candidate
// ordering, including tie-breaking among equal-coverage nodes, evolves
// bit-for-bit as it would on a single node holding the union of all shards'
// sets. That,
// plus the fact that every shipped quantity is an integer (float math never
// leaves the coordinator), is the determinism argument for sharded
// allocation (DESIGN.md §7).

package rrset

import "fmt"

// NewCounterCollection creates a segment-less coverage collection over n
// nodes for externally maintained counters: it supports Coverage, Drop,
// BestNode and TopNodes exactly like a set-backed Collection, but its
// counters change only through AddCounts and ApplyCover. Calling CoverNode
// or CountAndCoverFrom on a counter collection is a bug (it holds no sets).
func NewCounterCollection(n int) *Collection { return NewCollection(n) }

// resetCounter reinitializes c as NewCollection(n) builds it — no segments,
// every counter zero, the heap pending a rebuild — recycling every backing
// array (Workspace.Counter).
func (c *Collection) resetCounter(n int) {
	c.release()
	c.n, c.built = n, false
	c.candidates.reset(n, nil)
	c.covered, c.ncov = c.covered[:0], 0
	c.cov = cleared(c.cov, n)
}

// AddCounts credits freshly appended sets to the counters: nodes[i] gains
// counts[i] residual coverage, and the collection's set count grows by
// addedSets. Like AddFamily it marks the candidate heap for a deferred
// rebuild, so interleaving growth and queries keeps the heap's evolution
// identical to the set-backed path.
func (c *Collection) AddCounts(nodes []int32, counts []int32, addedSets int) {
	for i, u := range nodes {
		c.cov[u] += counts[i]
	}
	c.numSets += addedSets
	c.invalidate()
}

// ApplyCover applies one externally computed cover outcome: covered sets
// became covered, and nodes[i] loses decs[i] residual coverage. It syncs
// the deferred heap rebuild first — exactly where CoverNode and
// CountAndCoverFrom do — so a counter collection's heap sees the same
// coverage vector at the same moments as a set-backed one.
func (c *Collection) ApplyCover(covered int, nodes []int32, decs []int32) {
	c.SyncHeap()
	for i, u := range nodes {
		c.cov[u] -= decs[i]
	}
	c.ncov += covered
}

// CoverNodeDelta is CoverNode that additionally records the cover's effect
// as a sparse decrement vector: appended to nodes/decs (reused, returned
// re-sliced), node outNodes[i] lost outDecs[i] residual coverage — applied
// to a counter collection, exactly the coverage change CoverNode makes. The
// capture is one stamp per node (see deltaSink): a node's first touch
// appends it with its count before the walk, and each decrement is derived
// after the walk as that count minus the node's coverage now. Each node
// appears once, in an unspecified order: first-touch order, which follows
// the walk, with an inline cover-join record touching the covering node
// ahead of its other members. Nothing may depend on it; ApplyCover's
// integer subtractions are order-independent. Unlike CoverNode it does not
// sync the candidate heap: a sharded collection's candidates are ranked by
// the coordinator's counter collection, never by the shard's own heap, so
// the (still lazy, still correct) rebuild is deferred until someone actually
// queries it — and, the scores having moved off the opening's, it then
// reads the live ones. A capture reads the full coverage vector, so it runs
// the eager sparse walk (materialize first).
func (c *Collection) CoverNodeDelta(u int32, nodes []int32, decs []int32) (covered int, outNodes []int32, outDecs []int32) {
	c.materialize()
	c.opened = nil
	s := c.newDeltaSink(nodes, decs)
	covered = sparseDeltaSegs(c, u, 0, c.segs, &s)
	s.finish()
	c.ncov += covered
	if c.cov[u] != 0 {
		panic(fmt.Sprintf("rrset: residual coverage of %d nonzero after CoverNodeDelta", u))
	}
	return covered, s.nodes, s.decs
}

// CountAndCoverFromDelta is CountAndCoverFrom with the same sparse delta
// capture (and deferred heap sync, and eager sparse walk) as CoverNodeDelta,
// restricted to sets with id ≥ firstID (local ids of this collection).
func (c *Collection) CountAndCoverFromDelta(u int32, firstID int, nodes []int32, decs []int32) (covered int, outNodes []int32, outDecs []int32) {
	c.materialize()
	c.opened = nil
	s := c.newDeltaSink(nodes, decs)
	covered = sparseDeltaSegs(c, u, firstID, c.segs, &s)
	s.finish()
	c.ncov += covered
	return covered, s.nodes, s.decs
}
