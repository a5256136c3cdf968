package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// buildFig1 constructs the toy graph of the paper's Figure 1:
// v1->v3, v2->v3, v3->v4, v3->v5, v4->v6, v5->v6 (0-indexed here).
func buildFig1(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 5)
	b.AddEdge(4, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := buildFig1(t)
	if g.N() != 6 || g.M() != 6 {
		t.Fatalf("N=%d M=%d, want 6/6", g.N(), g.M())
	}
	if d := g.OutDegree(2); d != 2 {
		t.Fatalf("OutDegree(v3)=%d, want 2", d)
	}
	if d := g.InDegree(2); d != 2 {
		t.Fatalf("InDegree(v3)=%d, want 2", d)
	}
	if d := g.InDegree(0); d != 0 {
		t.Fatalf("InDegree(v1)=%d, want 0", d)
	}
	targets, first := g.OutEdges(2)
	if len(targets) != 2 || targets[0] != 3 || targets[1] != 4 {
		t.Fatalf("OutEdges(v3) = %v", targets)
	}
	if first != 2 {
		t.Fatalf("first EdgeID of v3 = %d, want 2", first)
	}
	sources, start := g.InRow(5)
	if len(sources) != 2 || sources[0] != 3 || sources[1] != 4 || start != 4 {
		t.Fatalf("InRow(v6) = %v at %d, want [3 4] at 4", sources, start)
	}
	for _, s := range sources {
		e, ok := g.FindEdge(s, 5)
		if !ok {
			t.Fatalf("in-edge %d->5 has no EdgeID", s)
		}
		if u, v := g.EdgeEndpoints(e); u != s || v != 5 {
			t.Fatalf("FindEdge(%d,5) = %d with endpoints (%d,%d)", s, e, u, v)
		}
	}
}

func TestFindEdge(t *testing.T) {
	g := buildFig1(t)
	if eid, ok := g.FindEdge(2, 4); !ok || eid != 3 {
		t.Fatalf("FindEdge(2,4) = %d,%v", eid, ok)
	}
	if _, ok := g.FindEdge(4, 2); ok {
		t.Fatal("FindEdge(4,2) should not exist")
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Fatal("HasEdge direction confusion")
	}
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	b2 := NewBuilder(3)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestBuildDeduplicates(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.MustBuild()
	if g.M() != 1 {
		t.Fatalf("M=%d after dedup, want 1", g.M())
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2)
	b.AddUndirected(0, 1)
	g := b.MustBuild()
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("AddUndirected did not create both directions")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.N() != 0 || g.M() != 0 {
		t.Fatal("empty graph not empty")
	}
	g2 := NewBuilder(5).MustBuild()
	if g2.N() != 5 || g2.M() != 0 {
		t.Fatal("edgeless graph wrong")
	}
	for u := int32(0); u < 5; u++ {
		if g2.OutDegree(u) != 0 || g2.InDegree(u) != 0 {
			t.Fatal("edgeless graph has degrees")
		}
	}
}

func TestEdgeEndpointsPanics(t *testing.T) {
	g := buildFig1(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range EdgeID")
		}
	}()
	g.EdgeEndpoints(99)
}

func TestStats(t *testing.T) {
	g := buildFig1(t)
	st := g.Stats()
	if st.Nodes != 6 || st.Edges != 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxOutDeg != 2 || st.MaxInDeg != 2 {
		t.Fatalf("degrees %+v", st)
	}
	if st.AvgOutDeg != 1.0 {
		t.Fatalf("avg out-degree %v", st.AvgOutDeg)
	}
}

// randomGraph builds a random simple digraph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	r := xrand.New(seed)
	b := NewBuilderHint(n, m)
	for i := 0; i < m; i++ {
		u := int32(r.IntN(n))
		v := int32(r.IntN(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// TestInOutConsistency checks, on random graphs, that the in-CSR is exactly
// the transpose of the out-CSR: in-rows ascend, lie end to end, and hold
// every out-edge once, each found by FindEdge at its out-CSR position.
func TestInOutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 30, 120)
		type pair struct{ u, v int32 }
		outSet := map[pair]EdgeID{}
		for u := int32(0); u < int32(g.N()); u++ {
			targets, first := g.OutEdges(u)
			for i, v := range targets {
				outSet[pair{u, v}] = first + int64(i)
			}
		}
		var count int64
		for v := int32(0); v < int32(g.N()); v++ {
			sources, start := g.InRow(v)
			if start != count {
				return false
			}
			for i, u := range sources {
				want, ok := outSet[pair{u, v}]
				e, found := g.FindEdge(u, v)
				if !ok || !found || want != e || (i > 0 && sources[i-1] >= u) {
					return false
				}
				delete(outSet, pair{u, v})
				count++
			}
		}
		return count == g.M() && len(outSet) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeIDsSortedByEndpoint(t *testing.T) {
	g := randomGraph(99, 50, 400)
	var prevU, prevV int32 = -1, -1
	for e := int64(0); e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if u < prevU || (u == prevU && v <= prevV) {
			t.Fatalf("EdgeIDs not sorted at %d: (%d,%d) after (%d,%d)", e, u, v, prevU, prevV)
		}
		prevU, prevV = u, v
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(7, 40, 200)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round-trip size mismatch: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for e := int64(0); e < g.M(); e++ {
		u1, v1 := g.EdgeEndpoints(e)
		u2, v2 := g2.EdgeEndpoints(e)
		if u1 != u2 || v1 != v2 {
			t.Fatalf("edge %d differs after round trip", e)
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	in := "# some SNAP-style comment\n0 1\n1 2\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3/3", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("expected error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("expected error for non-numeric line")
	}
}
