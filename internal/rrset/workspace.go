// Workspace: the recyclable per-ad state of a warm selection run. A warm
// core.AllocateFromIndex builds one coverage collection per ad per request;
// at serving rates the construction garbage (coverage counters, dead
// flags, the covered-set bitmap and the per-set weights, heap backing)
// dominates the allocation profile even though every array has the same
// shape on every request against the same index. A Workspace owns one
// Collection and one WeightedCollection whose backing arrays survive across
// runs — resetting them is a handful of memclr-style loops, and a pool of
// Workspaces makes the steady-state request allocation-free.

package rrset

// Workspace bundles one ad's reusable coverage state: a hard-mode
// Collection and a soft-mode WeightedCollection that recycle their backing
// arrays across Reset calls. A Workspace serves one ad of one selection
// run at a time (collections hand out interior pointers); recycle it — via
// sync.Pool or ad-hoc — only after the run has consumed its results. The
// zero value is ready to use.
type Workspace struct {
	col  Collection
	wcol WeightedCollection
}

// NewWorkspace returns an empty workspace. Buffers are grown on first use
// and kept forever after, so a pooled workspace reaches its steady-state
// shape after one request.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// Collection resets and returns the workspace's hard-coverage collection
// over a shared sample view and inverted index — equivalent to
// NewCollectionFromFamily(n, v, inv) but allocation-free once the
// workspace has warmed up. The returned collection is valid until the next
// Collection or Release call on this workspace.
func (w *Workspace) Collection(n int, v FamilyView, inv *Inverted) *Collection {
	w.col.Reset(n, v, inv)
	return &w.col
}

// Counter resets and returns the workspace's hard-coverage collection as a
// counter collection over n nodes — equivalent to NewCounterCollection(n)
// (no sets, every counter zero) but allocation-free once the workspace has
// warmed up; the coordinator's per-ad mirrors recycle through it. The
// returned collection is valid until the next Collection, Counter or
// Release call on this workspace.
func (w *Workspace) Counter(n int) *Collection {
	w.col.resetCounter(n)
	return &w.col
}

// Weighted resets and returns the workspace's soft-coverage collection —
// the WeightedCollection counterpart of Collection.
func (w *Workspace) Weighted(n int, v FamilyView, inv *Inverted) *WeightedCollection {
	w.wcol.Reset(n, v, inv)
	return &w.wcol
}

// Release drops every reference the workspace holds into index-owned
// memory (sample views, inverted indexes and the openings borrowed from
// them, growth segments) while keeping the workspace-owned backing arrays
// for reuse. Pools call it before parking a workspace so an idle pool
// never pins a retired index's arenas live.
func (w *Workspace) Release() {
	w.col.release()
	w.wcol.release()
	w.col.pq, w.wcol.pq = w.col.pq[:0], w.wcol.pq[:0]
	w.col.stale, w.wcol.stale = false, false
	w.col.opened, w.wcol.opened = nil, nil
}
