package rrset

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
// Storage is the same flat CSR segment layout as Collection (segStore);
// the only per-set state beyond the shared arenas is the weight vector.
// Selection is Collection's too (candidates), scored by float64 mass.
// Commits always take the sparse walk (sparseCommitSegs): the bitset
// kernel serves the hard Collection only.
type WeightedCollection struct {
	segStore
	candidates[float64]
	weight  []float64 // set id -> Π(1−δ) over committed members
	wcov    []float64 // node -> Σ weights of sets containing it
	claimed float64   // Σ_R (1 − w_R)
}

// NewWeightedCollection creates an empty weighted index over n nodes.
func NewWeightedCollection(n int) *WeightedCollection {
	c := &WeightedCollection{wcov: make([]float64, n)}
	c.n = n
	c.candidates.reset(n, nil)
	return c
}

// SyncHeap performs the deferred heap rebuild, if one is pending (see
// Collection.SyncHeap).
func (c *WeightedCollection) SyncHeap() { c.sync(c.wcov) }

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
	inv := c.grow(v)
	for i := 0; i < k; i++ {
		c.weight = append(c.weight, 1)
	}
	for u := range c.wcov {
		c.wcov[u] += float64(inv.Count(int32(u)))
	}
	c.invalidate()
}

// Reset mirrors Collection.Reset for the soft-coverage mode: reinitialize
// over a shared view and inverted index recycling every backing array
// (weights included), so a steady-state reset allocates nothing.
func (c *WeightedCollection) Reset(n int, v FamilyView, inv *Inverted) {
	o := c.segStore.reset(n, v, inv)
	c.candidates.reset(n, o)
	c.claimed = 0
	k := v.Len()
	if cap(c.weight) < k {
		c.weight = make([]float64, k)
	}
	c.weight = c.weight[:k]
	for i := range c.weight {
		c.weight[i] = 1
	}
	if cap(c.wcov) < n {
		c.wcov = make([]float64, n)
	}
	c.wcov = c.wcov[:n]
	for u := range c.wcov {
		c.wcov[u] = float64(o.cut[u])
	}
}

// NewWeightedCollectionFromFamily mirrors rrset.NewCollectionFromFamily for
// the soft-coverage mode: O(n) construction from the opening of a shared
// sample view's inverted index (same row-clipping contract).
func NewWeightedCollectionFromFamily(n int, v FamilyView, inv *Inverted) *WeightedCollection {
	c := &WeightedCollection{}
	c.Reset(n, v, inv)
	return c
}

// WeightedCoverage returns wcov[u] = Σ_{R∋u} w_R.
func (c *WeightedCollection) WeightedCoverage(u int32) float64 { return c.wcov[u] }

// BestNode returns the eligible node with maximum weighted coverage.
// Semantics mirror Collection.BestNode: ineligible nodes are dropped
// permanently (monotone eligibility), stale heap entries are refreshed
// lazily — valid because wcov only decreases between Adds.
func (c *WeightedCollection) BestNode(eligible func(int32) bool) (node int32, wcov float64, ok bool) {
	return c.best(c.wcov, floatSlack, eligible)
}

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
	nodes, wcovs = c.topInto(k, c.wcov, floatSlack, eligible, nodes), wcovs[:0]
	for _, u := range nodes {
		wcovs = append(wcovs, c.wcov[u])
	}
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
	return sparseCommitSegs(c, u, delta, firstID, c.segs)
}

// MemBytes mirrors Collection.MemBytes for Table 4 instrumentation: the
// exact data footprint of the segments plus weights, coverages, flags, and
// live heap entries.
func (c *WeightedCollection) MemBytes() int64 {
	return c.memBytes() +
		int64(len(c.weight))*8 +
		int64(c.n)*9 + // wcov + dead
		int64(len(c.pq))*16
}
