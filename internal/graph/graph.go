// Package graph provides the directed social-graph substrate shared by every
// model in this repository.
//
// Following the paper's convention, an arc (u, v) means "v follows u": v sees
// u's posts, so influence flows along the arc from u to v. Forward diffusion
// (Monte Carlo simulation of the TIC-CTP model) traverses out-edges;
// reverse-reachable-set sampling traverses in-edges.
//
// The graph is stored in compressed sparse row (CSR) form for both
// directions. Each directed edge has a canonical EdgeID — its position in
// the out-edge array — which the topic model uses to attach per-topic
// influence probabilities. The in-edge arrays hold sources only, with no
// back-map to EdgeIDs: Build fills them by walking the out-rows in source
// order, so a caller that needs per-edge data in in-CSR order scatters it
// with the same walk (see InRow). A graph built from undirected pairs alone
// (Builder.AddUndirected) is symmetric, so its in-CSR equals its out-CSR
// element for element, and both directions share one pair of arrays.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node; nodes are dense integers in [0, N).
type NodeID = int32

// EdgeID identifies a directed edge; edges are dense integers in [0, M)
// ordered by (source, target).
type EdgeID = int64

// Graph is an immutable directed graph in CSR form. Row offsets are 32-bit,
// so a graph holds fewer than 2^32 edges (Builder.Build refuses more).
type Graph struct {
	n int32
	m int64

	// Out-direction CSR. Edge j (EdgeID) goes from the unique u with
	// outStart[u] <= j < outStart[u+1] to outTo[j].
	outStart []uint32
	outTo    []int32

	// In-direction CSR. inFrom[k] lists the in-neighbors of the unique v
	// with inStart[v] <= k < inStart[v+1], ascending. A graph built from
	// undirected pairs alone holds the out-CSR's own arrays here.
	inStart []uint32
	inFrom  []int32
}

// N returns the number of nodes.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of directed edges.
func (g *Graph) M() int64 { return g.m }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutEdges returns the targets of u's out-edges and the EdgeID of u's first
// out-edge. The i-th returned target corresponds to EdgeID first+i. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutEdges(u NodeID) (targets []int32, first EdgeID) {
	s, e := g.outStart[u], g.outStart[u+1]
	return g.outTo[s:e], EdgeID(s)
}

// OutTargets returns every edge's target in EdgeID order — the out-rows
// end to end, OutEdges(u) being the slice from u's first EdgeID to the
// next node's. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) OutTargets() []int32 { return g.outTo }

// InRow returns the sources of v's in-edges, ascending, and the position of
// the first one in in-CSR order: rows are laid end to end by ascending node,
// so the i-th source sits at position first+i of [0, M). A caller that keeps
// per-edge data in that order (rrset.Sampler's probabilities) reads it in
// lockstep with sources, with no EdgeID hop. Walking the out-rows in EdgeID
// order meets each in-row's edges in its own order, which is how such data
// is built: a cursor per target, started at InRow's first, takes edge j's
// value at the target's next position. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) InRow(v NodeID) (sources []int32, first int64) {
	s, e := g.inStart[v], g.inStart[v+1]
	return g.inFrom[s:e], int64(s)
}

// EdgeEndpoints returns the (source, target) of a canonical edge. It is
// O(log n) (binary search over outStart) and intended for tests and
// diagnostics, not inner loops.
func (g *Graph) EdgeEndpoints(e EdgeID) (NodeID, NodeID) {
	if e < 0 || e >= g.m {
		panic(fmt.Sprintf("graph: EdgeID %d out of range [0,%d)", e, g.m))
	}
	// Find u with outStart[u] <= e < outStart[u+1].
	u := sort.Search(int(g.n), func(i int) bool { return EdgeID(g.outStart[i+1]) > e })
	return int32(u), g.outTo[e]
}

// HasEdge reports whether the edge u->v exists. O(log outdeg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// FindEdge returns the canonical EdgeID of u->v if it exists.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	s, e := g.outStart[u], g.outStart[u+1]
	row := g.outTo[s:e]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return EdgeID(s) + int64(i), true
	}
	return 0, false
}

// Stats summarizes the graph for dataset tables (paper Table 1).
type Stats struct {
	Nodes     int
	Edges     int64
	MaxOutDeg int
	MaxInDeg  int
	AvgOutDeg float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{Nodes: g.N(), Edges: g.M()}
	for u := int32(0); u < g.n; u++ {
		if d := g.OutDegree(u); d > st.MaxOutDeg {
			st.MaxOutDeg = d
		}
		if d := g.InDegree(u); d > st.MaxInDeg {
			st.MaxInDeg = d
		}
	}
	if g.n > 0 {
		st.AvgOutDeg = float64(g.m) / float64(g.n)
	}
	return st
}
