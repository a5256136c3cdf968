package rrset

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// refScratch is the BFS state of referenceSample: one uint32 stamp per
// node, compared against a round counter.
type refScratch struct {
	mark  []uint32
	round uint32
	queue []int32
	out   []int32
}

// referenceSample is the sampler's reverse BFS as it stood before the
// in-CSR-ordered probabilities and the bitset marks — probabilities read
// through the canonical EdgeID of each in-edge (found with FindEdge now that
// the graph keeps no EdgeID back-map), visits stamped in a uint32 array —
// kept as the definition of what sampleScratch must return and of how many
// draws it must take from the stream.
func referenceSample(g *graph.Graph, probs []float32, ctps topic.CTP, sc *refScratch, rng *xrand.Rand, withCTP bool) []int32 {
	if sc.mark == nil {
		sc.mark = make([]uint32, g.N())
	}
	sc.round++
	if sc.round == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.round = 1
	}
	sc.queue = sc.queue[:0]
	sc.out = sc.out[:0]
	root := int32(rng.IntN(g.N()))
	sc.mark[root] = sc.round
	sc.queue = append(sc.queue, root)
	if !withCTP || rng.Bernoulli(ctps.At(root)) {
		sc.out = append(sc.out, root)
	}
	for qi := 0; qi < len(sc.queue); qi++ {
		u := sc.queue[qi]
		sources, _ := g.InRow(u)
		for _, v := range sources {
			if sc.mark[v] == sc.round {
				continue
			}
			if e, _ := g.FindEdge(v, u); !rng.Bernoulli32(probs[e]) {
				continue
			}
			sc.mark[v] = sc.round
			sc.queue = append(sc.queue, v)
			if !withCTP || rng.Bernoulli(ctps.At(v)) {
				sc.out = append(sc.out, v)
			}
		}
	}
	return sc.out
}

// coin draws a probability that is exactly 0 one time in ten, exactly 1 one
// time in twenty (neither consumes a draw when flipped) and uniform in
// [0, hi) otherwise.
func coin(r *xrand.Rand, hi float64) float32 {
	switch k := r.IntN(20); {
	case k < 2:
		return 0
	case k == 2:
		return 1
	}
	return float32(r.Uniform(0, hi))
}

// hubGraph is a random graph whose shape stresses the sample loop: two hub
// rows of in-degree ≥ 5 000 (one row spans thousands of consecutive in-CSR
// positions and marks bits in every word of the bitset), sparse random arcs
// elsewhere, hub out-arcs so that walks reach the hubs, and a tail of
// isolated nodes.
func hubGraph(t testing.TB, seed uint64) (*graph.Graph, []float32, topic.VecCTP) {
	t.Helper()
	const n, connected, hubDeg = 6100, 6000, 5200
	r := xrand.New(seed)
	b := graph.NewBuilder(n)
	for _, hub := range []int32{0, 3001} {
		for _, u := range r.Perm(connected)[:hubDeg] {
			if int32(u) != hub {
				b.AddEdge(int32(u), hub)
			}
		}
		for k := 0; k < 150; k++ {
			if v := int32(r.IntN(connected)); v != hub {
				b.AddEdge(hub, v)
			}
		}
	}
	for k := 0; k < 4*connected; k++ {
		if u, v := int32(r.IntN(connected)), int32(r.IntN(connected)); u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	if d := g.InDegree(0); d < 5000 {
		t.Fatalf("hub in-degree %d, want ≥ 5000", d)
	}
	if g.InDegree(n-1) != 0 || g.OutDegree(n-1) != 0 {
		t.Fatal("tail node is not isolated")
	}
	probs := make([]float32, g.M())
	for i := range probs {
		probs[i] = coin(r, 0.3)
	}
	ctps := make(topic.VecCTP, n)
	for i := range ctps {
		ctps[i] = coin(r, 1)
	}
	return g, probs, ctps
}

// TestInProbsMatchFindEdge: the probability vector buildInProbs scatters
// from the out-rows holds, at every in-CSR position, the probability of the
// edge FindEdge names for that position's (source, target) — on random
// multigraphs with isolated nodes and on the hub graph. Each edge's
// probability is its EdgeID, so a misplaced entry cannot pass by a tie.
func TestInProbsMatchFindEdge(t *testing.T) {
	graphs := []*graph.Graph{graph.NewBuilder(0).MustBuild(), graph.NewBuilder(3).MustBuild()}
	r := xrand.New(31)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.IntN(80)
		live := 1 + r.IntN(n)
		b := graph.NewBuilder(n)
		for i, draws := 0, r.IntN(8*n); i < draws; i++ {
			if u, v := int32(r.IntN(live)), int32(r.IntN(live)); u != v {
				b.AddEdge(u, v)
				b.AddEdge(u, v)
			}
		}
		graphs = append(graphs, b.MustBuild())
	}
	hub, _, _ := hubGraph(t, 14)
	graphs = append(graphs, hub)
	for gi, g := range graphs {
		probs := make([]float32, g.M())
		for j := range probs {
			probs[j] = float32(j)
		}
		s := NewSampler(g, probs, nil)
		s.buildInProbs()
		if len(s.inProbs) != len(probs) {
			t.Fatalf("graph %d: %d in-CSR probabilities for %d edges", gi, len(s.inProbs), len(probs))
		}
		for v := int32(0); v < int32(g.N()); v++ {
			sources, first := g.InRow(v)
			for i, u := range sources {
				e, ok := g.FindEdge(u, v)
				if !ok {
					t.Fatalf("graph %d: in-edge %d->%d has no EdgeID", gi, u, v)
				}
				if got := s.inProbs[first+int64(i)]; got != probs[e] {
					t.Fatalf("graph %d: in-CSR position %d (%d->%d) holds %v, FindEdge gives %v",
						gi, first+int64(i), u, v, got, probs[e])
				}
			}
		}
	}
}

// TestSampleScratchMatchesReference pins "bit-identical": from one scratch,
// over thousands of consecutive samples (so every sample but the first runs
// on marks the previous one set and reset cleared), sampleScratch returns
// the reference loop's members in the reference loop's order and leaves the
// stream where the reference leaves it — the mark test comes before the
// coin, so a node already reached costs no draw.
func TestSampleScratchMatchesReference(t *testing.T) {
	single := graph.NewBuilder(1).MustBuild()
	hubG, hubProbs, hubCTPs := hubGraph(t, 11)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		probs   []float32
		ctps    topic.VecCTP
		samples int
	}{
		{"hubs", hubG, hubProbs, hubCTPs, 12000},
		{"n=1", single, nil, topic.VecCTP{0.5}, 200},
	} {
		for _, withCTP := range []bool{false, true} {
			s := NewSampler(tc.g, tc.probs, tc.ctps)
			sc, ref := s.newScratch(), &refScratch{}
			rng, refRng := xrand.New(77), xrand.New(77)
			var members int
			for i := 0; i < tc.samples; i++ {
				got := s.sampleScratch(sc, rng, withCTP)
				want := referenceSample(tc.g, tc.probs, tc.ctps, ref, refRng, withCTP)
				if !slices.Equal(got, want) {
					t.Fatalf("%s ctp=%v: sample %d has %d members, reference %d, or the same in another order",
						tc.name, withCTP, i, len(got), len(want))
				}
				if a, b := rng.Uint64(), refRng.Uint64(); a != b {
					t.Fatalf("%s ctp=%v: stream diverged after sample %d", tc.name, withCTP, i)
				}
				members += len(got)
			}
			if tc.name == "hubs" && members < 20*tc.samples {
				t.Fatalf("ctp=%v: %d members over %d samples — the walks never crossed a hub row", withCTP, members, tc.samples)
			}
		}
	}
}

// TestStreamArenasMatchReference rebuilds the arena of SampleRangeRRInto
// block by block from the reference loop and requires the same offsets and
// the same member array.
func TestStreamArenasMatchReference(t *testing.T) {
	g, probs, _ := hubGraph(t, 12)
	s := NewSampler(g, probs, nil)
	const from, to = 2 * StreamBlockSize, 9 * StreamBlockSize
	got := NewSetFamily()
	s.SampleRangeRRInto(from, to, xrand.New(5), got)
	want, ref, rng := NewSetFamily(), &refScratch{}, xrand.New(5)
	for b := from / StreamBlockSize; b < to/StreamBlockSize; b++ {
		brng := rng.Split(uint64(b))
		for i := 0; i < StreamBlockSize; i++ {
			want.Append(referenceSample(g, probs, nil, ref, brng, false))
		}
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.members, want.members) {
		t.Fatalf("arena differs from the reference (%d sets / %d members, want %d / %d)",
			got.Len(), got.NumMembers(), want.Len(), want.NumMembers())
	}
}

// TestFirstSampleConcurrent fires the first sample of a fresh Sampler from
// eight goroutines at once: the in-order probability vector, built by
// whichever gets there first, is the only state samples share. Meant for
// -race (make race runs it; ten fresh samplers stand in for -count=10).
func TestFirstSampleConcurrent(t *testing.T) {
	g, probs, ctps := hubGraph(t, 13)
	for round := 0; round < 10; round++ {
		s := NewSampler(g, probs, ctps)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := uint64(0); w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got := s.sampleScratch(s.newScratch(), xrand.New(w), false)
				want := referenceSample(g, probs, nil, &refScratch{}, xrand.New(w), false)
				if !slices.Equal(got, want) {
					t.Errorf("round %d worker %d: first sample has %d members, reference %d, or the same in another order",
						round, w, len(got), len(want))
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
