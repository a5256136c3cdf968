package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates directed edges and undirected pairs and produces an
// immutable Graph. Duplicate edges are coalesced; self-loops are rejected at
// Build time (the propagation models give them no semantics).
type Builder struct {
	n     int
	edges []edge
	pairs []edge // AddUndirected's pairs, each standing for both orientations
}

type edge struct{ u, v int32 }

// check returns Build's error for an edge, or a pair, that names a node
// outside [0, n) or loops on one node.
func (e edge) check(n int32) error {
	if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.u, e.v, n)
	}
	if e.u == e.v {
		return fmt.Errorf("graph: self-loop at node %d", e.u)
	}
	return nil
}

// NewBuilder creates a builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// NewBuilderHint is NewBuilder with a capacity hint for the edge list.
func NewBuilderHint(n int, edgeHint int) *Builder {
	b := NewBuilder(n)
	b.edges = make([]edge, 0, edgeHint)
	return b
}

// NewBuilderPairHint is NewBuilder with a capacity hint for the list of
// AddUndirected pairs.
func NewBuilderPairHint(n int, pairHint int) *Builder {
	b := NewBuilder(n)
	b.pairs = make([]edge, 0, pairHint)
	return b
}

// N returns the node count the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the directed edge u->v ("v follows u"). Out-of-range
// endpoints cause Build to fail.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, edge{u, v})
}

// AddUndirected records both u->v and v->u as one pair (used by the DBLP
// analogue, where the paper directs all co-authorship edges in both
// directions). Out-of-range endpoints or u == v cause Build to fail with
// the error AddEdge(u, v) would give.
func (b *Builder) AddUndirected(u, v NodeID) {
	b.pairs = append(b.pairs, edge{u, v})
}

// Build validates, deduplicates, sorts, and freezes the graph in O(n + m)
// time. A builder that holds pairs only builds one CSR for both directions
// (buildUndirected); otherwise its pairs are expanded into both
// orientations beside its edges and the general path below runs. The
// builder's own edge and pair lists are left as they were. The graph's row
// offsets are 32-bit, so Build fails when the deduplicated edges number
// 2^32 or more.
func (b *Builder) Build() (*Graph, error) {
	if len(b.pairs) > 0 && len(b.edges) == 0 {
		return buildUndirected(int32(b.n), b.pairs)
	}
	edges := b.edges
	if len(b.pairs) > 0 {
		edges = make([]edge, 0, len(b.edges)+2*len(b.pairs))
		edges = append(edges, b.edges...)
		for _, p := range b.pairs {
			edges = append(edges, p, edge{p.v, p.u})
		}
	}
	return buildDirected(int32(b.n), edges)
}

// buildDirected is Build's general path. The (source, target) order that
// defines EdgeIDs comes from transposing the edge list twice — group the
// raw edges by target, then walk the targets in ascending order dropping
// each into its source's row — which is a stable two-key counting sort with
// no comparisons at all, so a hub row of any length costs what its length
// says. Duplicates land side by side and are squeezed out as the rows are
// compacted; a third transpose of the finished out-CSR, walked in EdgeID
// order, is the in-CSR — so the k-th in-row position of a target holds its
// k-th in-edge in EdgeID order. Transient memory is two int32 arrays over
// the raw edges (one edge array's worth).
func buildDirected(n int32, edges []edge) (*Graph, error) {
	// Every transpose below uses one counting-sort layout: group sizes are
	// counted two slots up, so after the prefix sums x[w+1] is where node w's
	// group begins, and a scatter that advances x[w+1] once per element
	// leaves w's group at [x[w], x[w+1]) — bounds without a cursor array.
	byTarget := make([]int64, n+2)
	bySource := make([]int64, n+2)
	for _, e := range edges {
		if err := e.check(n); err != nil {
			return nil, err
		}
		byTarget[e.v+2]++
		bySource[e.u+2]++
	}
	for w := int32(0); w < n; w++ {
		byTarget[w+2] += byTarget[w+1]
		bySource[w+2] += bySource[w+1]
	}
	// Raw edges grouped by target, holding the source.
	sources := make([]int32, len(edges))
	for _, e := range edges {
		sources[byTarget[e.v+1]] = e.u
		byTarget[e.v+1]++
	}
	// Regrouped by source in ascending target order: every row comes out
	// sorted, with duplicate edges adjacent.
	targets := make([]int32, len(edges))
	for v := int32(0); v < n; v++ {
		for _, u := range sources[byTarget[v]:byTarget[v+1]] {
			targets[bySource[u+1]] = v
			bySource[u+1]++
		}
	}
	// Out CSR: compact the rows over their duplicates, in place (the write
	// position never passes the read position). EdgeID = final position.
	outStart := make([]uint32, n+1)
	inStart := make([]uint32, n+2)
	var m int64
	for u := int32(0); u < n; u++ {
		outStart[u] = uint32(m)
		prev := int32(-1)
		for _, v := range targets[bySource[u]:bySource[u+1]] {
			if v != prev {
				targets[m] = v
				m++
				inStart[v+2]++
				prev = v
			}
		}
	}
	if m > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d edges pass the 32-bit offset limit", m)
	}
	outStart[n] = uint32(m)
	g := &Graph{
		n:        n,
		m:        m,
		outStart: outStart,
		outTo:    slices.Clone(targets[:m]),
		inFrom:   make([]int32, m),
	}
	// In CSR: sources ascend within a row because the out rows are walked
	// in source order.
	for w := int32(0); w < n; w++ {
		inStart[w+2] += inStart[w+1]
	}
	for u := int32(0); u < n; u++ {
		for _, v := range g.outTo[outStart[u]:outStart[u+1]] {
			g.inFrom[inStart[v+1]] = u
			inStart[v+1]++
		}
	}
	g.inStart = inStart[:n+1]
	return g, nil
}

// buildUndirected is Build for a builder that holds pairs only. Their edge
// set is symmetric — u->v is in it exactly when v->u is — so v's in-row,
// the u with u->v in ascending order, is v's out-row element for element,
// and the graph points its in-CSR at its out-CSR. The rows are one
// counting sort: each pair goes into both endpoints' groups in pair order,
// then walking the groups by ascending node w drops w into the row of every
// x in w's group. The groups are symmetric too (x sits in w's group as often
// as w in x's), so x's row receives its group's elements again, now
// ascending, with duplicates adjacent; the rows are compacted over them in
// place. Against the general path this skips the transpose that regroups
// by target, the in-CSR's transpose and the copy of the targets, over a raw
// list half as long. The targets array keeps its raw length, pairs dropped
// as duplicates included, as the graph's one edge array.
func buildUndirected(n int32, pairs []edge) (*Graph, error) {
	// The general path's layout: after the scatter, w's group is
	// [at[w], at[w+1]).
	at := make([]int64, n+2)
	for _, p := range pairs {
		if err := p.check(n); err != nil {
			return nil, err
		}
		at[p.u+2]++
		at[p.v+2]++
	}
	for w := int32(0); w < n; w++ {
		at[w+2] += at[w+1]
	}
	grouped := make([]int32, 2*len(pairs))
	for _, p := range pairs {
		grouped[at[p.u+1]] = p.v
		at[p.u+1]++
		grouped[at[p.v+1]] = p.u
		at[p.v+1]++
	}
	// x's row has its group's length, so it starts where the group does.
	next := slices.Clone(at[:n])
	targets := make([]int32, len(grouped))
	for w := int32(0); w < n; w++ {
		for _, x := range grouped[at[w]:at[w+1]] {
			targets[next[x]] = w
			next[x]++
		}
	}
	start := make([]uint32, n+1)
	var m int64
	for u := int32(0); u < n; u++ {
		start[u] = uint32(m)
		prev := int32(-1)
		for _, v := range targets[at[u]:at[u+1]] {
			if v != prev {
				targets[m] = v
				m++
				prev = v
			}
		}
	}
	if m > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d edges pass the 32-bit offset limit", m)
	}
	start[n] = uint32(m)
	to := targets[:m]
	return &Graph{n: n, m: m, outStart: start, outTo: to, inStart: start, inFrom: to}, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are constructed correctly by design.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
