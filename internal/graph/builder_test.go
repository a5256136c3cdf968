package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// referenceCSR is what Build must produce, derived the way Build used to:
// one comparison sort of the edge list by (source, target), duplicates
// dropped, EdgeID = position, in-rows filled in EdgeID order.
type referenceCSR struct {
	out    [][]int32 // out[u] = targets of u, ascending
	first  []int64   // first[u] = EdgeID of u's first out-edge
	inFrom [][]int32 // inFrom[v] = sources of v, ascending
	inEID  [][]int64 // inEID[v][i] = EdgeID of inFrom[v][i] -> v
	m      int64
}

func referenceBuild(n int, edges []edge) referenceCSR {
	es := slices.Clone(edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	ref := referenceCSR{
		out:    make([][]int32, n),
		first:  make([]int64, n),
		inFrom: make([][]int32, n),
		inEID:  make([][]int64, n),
	}
	for i, e := range es {
		if i > 0 && e == es[i-1] {
			continue
		}
		ref.out[e.u] = append(ref.out[e.u], e.v)
		ref.inFrom[e.v] = append(ref.inFrom[e.v], e.u)
		ref.inEID[e.v] = append(ref.inEID[e.v], ref.m)
		ref.m++
	}
	var next int64
	for u := range ref.out {
		ref.first[u] = next
		next += int64(len(ref.out[u]))
	}
	return ref
}

// checkAgainstReference compares Build's graph with the reference node by
// node: out-rows and their first EdgeIDs, in-rows' sources and — found
// through FindEdge — their EdgeIDs, and where each in-row starts.
func checkAgainstReference(t *testing.T, name string, n int, edges []edge) *Graph {
	t.Helper()
	b := NewBuilder(n)
	b.edges = slices.Clone(edges)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	if !slices.Equal(b.edges, edges) {
		t.Fatalf("%s: Build reordered the builder's edge list", name)
	}
	ref := referenceBuild(n, edges)
	if g.N() != n || g.M() != ref.m {
		t.Fatalf("%s: size %d/%d, want %d/%d", name, g.N(), g.M(), n, ref.m)
	}
	var inPos int64
	for w := int32(0); w < int32(n); w++ {
		targets, first := g.OutEdges(w)
		if !slices.Equal(targets, ref.out[w]) || first != ref.first[w] {
			t.Fatalf("%s: out-row %d = %v from EdgeID %d, want %v from %d",
				name, w, targets, first, ref.out[w], ref.first[w])
		}
		sources, start := g.InRow(w)
		if !slices.Equal(sources, ref.inFrom[w]) || start != inPos {
			t.Fatalf("%s: in-row %d = %v at %d, want %v at %d",
				name, w, sources, start, ref.inFrom[w], inPos)
		}
		inPos += int64(len(sources))
		for i, u := range sources {
			if e, ok := g.FindEdge(u, w); !ok || e != ref.inEID[w][i] {
				t.Fatalf("%s: in-edge %d->%d has EdgeID %d (found %v), want %d",
					name, u, w, e, ok, ref.inEID[w][i])
			}
		}
	}
	return g
}

// TestBuildMatchesSortedReference is the property the linear-time build is
// held to: on any edge multiset it yields bit for bit the graph the old
// sort-and-dedup construction did.
func TestBuildMatchesSortedReference(t *testing.T) {
	checkAgainstReference(t, "empty graph", 0, nil)
	checkAgainstReference(t, "one node", 1, nil)
	checkAgainstReference(t, "isolated nodes only", 50, nil)
	checkAgainstReference(t, "one edge", 2, []edge{{1, 0}})

	r := xrand.New(2024)
	for trial := 0; trial < 60; trial++ {
		// Few nodes against many draws forces duplicates; drawing endpoints
		// from the lower half only leaves the upper half isolated.
		n := 2 + r.IntN(60)
		live := n
		if trial%3 == 0 {
			live = 2 + r.IntN(n-1)
		}
		var edges []edge
		for i, draws := 0, r.IntN(6*n); i < draws; i++ {
			u, v := int32(r.IntN(live)), int32(r.IntN(live))
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v})
			if r.IntN(4) == 0 {
				edges = append(edges, edge{u, v}) // an immediate repeat
			}
		}
		checkAgainstReference(t, "random multigraph", n, edges)
	}

	// One hub with 12 000 distinct targets and as many sources, every hub
	// edge drawn ~1.5 times, in shuffled order, over a sparse background.
	const n, hub = 20000, 7
	var edges []edge
	for i := 0; i < 18000; i++ {
		w := int32(1000 + r.IntN(12000))
		edges = append(edges, edge{hub, w}, edge{w, hub})
	}
	for w := int32(1000); w < 13000; w++ {
		edges = append(edges, edge{hub, w}, edge{w, hub})
	}
	for i := 0; i < 30000; i++ {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		if u != v {
			edges = append(edges, edge{u, v})
		}
	}
	for i, p := range r.Perm(len(edges)) {
		edges[i], edges[p] = edges[p], edges[i]
	}
	if g := checkAgainstReference(t, "hub rows", n, edges); g.OutDegree(hub) < 10000 || g.InDegree(hub) < 10000 {
		t.Fatalf("hub degrees %d/%d, the case needs >= 10^4", g.OutDegree(hub), g.InDegree(hub))
	}
}

// communityEdgeList draws the raw edge list of gen's community-structured
// DBLP analogue (20-node communities, 97 % of links inside one, both
// directions added) without building it: the input Build sees on a cold
// start at paper scale, duplicates included.
func communityEdgeList(n, undirected int, r *xrand.Rand) []edge {
	const commSize = 20
	numComm := (n + commSize - 1) / commSize
	edges := make([]edge, 0, 2*undirected)
	for len(edges) < 2*undirected {
		var u, v int32
		if r.Bernoulli(0.97) {
			lo := r.IntN(numComm) * commSize
			hi := min(lo+commSize, n)
			u, v = int32(lo+r.IntN(hi-lo)), int32(lo+r.IntN(hi-lo))
		} else {
			u, v = int32(r.IntN(n)), int32(r.IntN(n))
		}
		if u != v {
			edges = append(edges, edge{u, v}, edge{v, u})
		}
	}
	return edges
}

// BenchmarkGraphBuild measures Builder.Build's general path on a 2 M-edge
// community edge list over 300 K nodes — the DBLP analogue's shape added as
// directed edges, the path ReadEdgeList and the directed generators take
// before the first RR set is drawn. Each iteration builds from a fresh copy
// of the list (a memcpy, a few percent of the build).
func BenchmarkGraphBuild(b *testing.B) {
	const n = 300000
	edges := communityEdgeList(n, 1000000, xrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	var m int64
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n)
		bld.edges = slices.Clone(edges)
		m = bld.MustBuild().M()
	}
	b.ReportMetric(float64(m), "edges")
}

// BenchmarkGraphBuildUndirected is BenchmarkGraphBuild's community graph
// added as its 1 M pairs, the way gen's DBLP analogue adds it: Build's
// pairs-only path, which builds one CSR for both directions.
func BenchmarkGraphBuildUndirected(b *testing.B) {
	const n = 300000
	edges := communityEdgeList(n, 1000000, xrand.New(1))
	pairs := make([]edge, len(edges)/2)
	for i := range pairs {
		pairs[i] = edges[2*i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m int64
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n)
		bld.pairs = slices.Clone(pairs)
		m = bld.MustBuild().M()
	}
	b.ReportMetric(float64(m), "edges")
}

// sameCSR fails unless got and want hold equal CSR arrays in both
// directions.
func sameCSR(t *testing.T, where string, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.m != want.m ||
		!slices.Equal(got.outStart, want.outStart) || !slices.Equal(got.outTo, want.outTo) ||
		!slices.Equal(got.inStart, want.inStart) || !slices.Equal(got.inFrom, want.inFrom) {
		t.Fatalf("%s: CSR arrays differ (n %d/%d, m %d/%d)", where, got.n, want.n, got.m, want.m)
	}
}

// randomPairs draws k pairs over n nodes with duplicates, pairs repeated in
// the other orientation and, when the nodes are few against k, plenty of
// both.
func randomPairs(r *xrand.Rand, n, k int) []edge {
	var pairs []edge
	for len(pairs) < k && n >= 2 {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		if u == v {
			continue
		}
		pairs = append(pairs, edge{u, v})
		switch r.IntN(5) {
		case 0:
			pairs = append(pairs, edge{u, v})
		case 1:
			pairs = append(pairs, edge{v, u})
		}
	}
	return pairs
}

// TestUndirectedMatchesDirected holds Build's pairs-only path to the
// general one: the same pairs added with AddUndirected, and with AddEdge in
// both orientations, give equal CSR arrays; the pairs-only graph's in-rows
// are its out-rows, and the builder's pair list is left as it was.
func TestUndirectedMatchesDirected(t *testing.T) {
	r := xrand.New(57)
	for _, n := range []int{0, 1, 2, 600, 30000} {
		for _, k := range []int{0, 1, 3 * n, 8 * n} {
			pairs := randomPairs(r, n, k)
			where := fmt.Sprintf("n %d, %d pairs", n, len(pairs))
			und, dir := NewBuilder(n), NewBuilder(n)
			for _, p := range pairs {
				und.AddUndirected(p.u, p.v)
				dir.AddEdge(p.u, p.v)
				dir.AddEdge(p.v, p.u)
			}
			g, err := und.Build()
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if !slices.Equal(und.pairs, pairs) {
				t.Fatalf("%s: Build changed the builder's pair list", where)
			}
			sameCSR(t, where, g, dir.MustBuild())
			for v := int32(0); v < int32(n); v++ {
				sources, at := g.InRow(v)
				targets, first := g.OutEdges(v)
				if !slices.Equal(sources, targets) || at != first {
					t.Fatalf("%s: node %d's in-row %v at %d, out-row %v at %d", where, v, sources, at, targets, first)
				}
			}
		}
	}
}

// TestMixedBuilderMatchesReference builds a builder holding directed edges
// and pairs, which expands its pairs and takes the general path, against
// the build of the expanded list, itself held to the sorted reference.
func TestMixedBuilderMatchesReference(t *testing.T) {
	r := xrand.New(58)
	const n = 300
	pairs := randomPairs(r, n, 900)
	b := NewBuilder(n)
	var all []edge
	for i, p := range pairs {
		if i%3 == 0 {
			b.AddEdge(p.u, p.v)
			all = append(all, p)
			continue
		}
		b.AddUndirected(p.u, p.v)
		all = append(all, p, edge{p.v, p.u})
	}
	edges, und := slices.Clone(b.edges), slices.Clone(b.pairs)
	g := b.MustBuild()
	if !slices.Equal(b.edges, edges) || !slices.Equal(b.pairs, und) {
		t.Fatal("Build changed the builder's lists")
	}
	sameCSR(t, "mixed builder", g, checkAgainstReference(t, "expanded list", n, all))
}

// TestUndirectedErrorsMatchDirected gives a bad pair, after good ones, to
// AddUndirected and to AddEdge in both orientations: Build fails with the
// same text either way.
func TestUndirectedErrorsMatchDirected(t *testing.T) {
	const n = 5
	for _, bad := range []edge{{3, 3}, {0, 0}, {-1, 2}, {2, -1}, {n, 1}, {1, n}, {n, n}} {
		und, dir := NewBuilder(n), NewBuilder(n)
		for _, p := range []edge{{0, 1}, {1, 2}, bad, {3, 4}} {
			und.AddUndirected(p.u, p.v)
			dir.AddEdge(p.u, p.v)
			dir.AddEdge(p.v, p.u)
		}
		_, uerr := und.Build()
		_, derr := dir.Build()
		if uerr == nil || derr == nil || uerr.Error() != derr.Error() {
			t.Fatalf("pair %v: AddUndirected's error %v, AddEdge's %v", bad, uerr, derr)
		}
	}
}
