package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates directed edges and produces an immutable Graph.
// Duplicate edges are coalesced; self-loops are rejected at Build time
// (the propagation models give them no semantics).
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ u, v int32 }

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

// N returns the node count the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the directed edge u->v ("v follows u"). Out-of-range
// endpoints cause Build to fail.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, edge{u, v})
}

// AddUndirected records both u->v and v->u (used by the DBLP analogue,
// where the paper directs all co-authorship edges in both directions).
func (b *Builder) AddUndirected(u, v NodeID) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// Build validates, deduplicates, sorts, and freezes the graph in O(n + m)
// time: the (source, target) order that defines EdgeIDs comes from
// transposing the edge list twice — group the raw edges by target, then
// walk the targets in ascending order dropping each into its source's row —
// which is a stable two-key counting sort with no comparisons at all, so a
// hub row of any length costs what its length says. Duplicates land side by
// side and are squeezed out as the rows are compacted; a third transpose of
// the finished out-CSR, walked in EdgeID order, is the in-CSR — so the k-th
// in-row position of a target holds its k-th in-edge in EdgeID order.
// Transient memory is two int32 arrays over the raw edges (one edge array's
// worth); the builder's own edge list is left as it was. The graph's row
// offsets are 32-bit, so Build fails when the deduplicated edges number 2^32
// or more.
func (b *Builder) Build() (*Graph, error) {
	n := int32(b.n)
	// Every transpose below uses one counting-sort layout: group sizes are
	// counted two slots up, so after the prefix sums x[w+1] is where node w's
	// group begins, and a scatter that advances x[w+1] once per element
	// leaves w's group at [x[w], x[w+1]) — bounds without a cursor array.
	byTarget := make([]int64, n+2)
	bySource := make([]int64, n+2)
	for _, e := range b.edges {
		if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.u, e.v, n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.u)
		}
		byTarget[e.v+2]++
		bySource[e.u+2]++
	}
	for w := int32(0); w < n; w++ {
		byTarget[w+2] += byTarget[w+1]
		bySource[w+2] += bySource[w+1]
	}
	// Raw edges grouped by target, holding the source.
	sources := make([]int32, len(b.edges))
	for _, e := range b.edges {
		sources[byTarget[e.v+1]] = e.u
		byTarget[e.v+1]++
	}
	// Regrouped by source in ascending target order: every row comes out
	// sorted, with duplicate edges adjacent.
	targets := make([]int32, len(b.edges))
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

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are constructed correctly by design.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
