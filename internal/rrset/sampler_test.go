package rrset

import (
	"fmt"
	"math"
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

// weightedCascade is p(u,v) = 1/indeg(v) in EdgeID order, as the
// scalability datasets' generator writes it: every in-row one probability.
func weightedCascade(g *graph.Graph) []float32 {
	probs := make([]float32, g.M())
	for u := int32(0); u < int32(g.N()); u++ {
		targets, first := g.OutEdges(u)
		for i, v := range targets {
			probs[first+int64(i)] = float32(1) / float32(g.InDegree(v))
		}
	}
	return probs
}

// walkProb is the probability the walk flips for v's i-th in-edge, read
// from whichever layout buildInProbs chose.
func walkProb(s *Sampler, v int32, i int) float32 {
	if s.inProbs != nil {
		_, first := s.g.InRow(v)
		return s.inProbs[first+int64(i)]
	}
	return s.nodeProbs[v]
}

// TestInProbsMatchFindEdge: the probabilities buildInProbs lays out give,
// for every in-CSR position, the probability of the edge FindEdge names
// for that position's (source, target) — on random multigraphs with
// isolated nodes and on the hub graph, under two vectors. With each edge's
// probability its EdgeID (a misplaced entry cannot pass by a tie) the
// sampler keeps one per node exactly when no in-row has two edges; under
// weighted cascade it always does.
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
	var perEdge, perNode int
	for gi, g := range graphs {
		ids := make([]float32, g.M())
		for j := range ids {
			ids[j] = float32(j)
		}
		singleRows := true
		for v := int32(0); v < int32(g.N()); v++ {
			singleRows = singleRows && g.InDegree(v) <= 1
		}
		for _, tc := range []struct {
			name    string
			probs   []float32
			perNode bool
		}{{"ids", ids, singleRows}, {"wc", weightedCascade(g), true}} {
			s := NewSampler(g, tc.probs, nil)
			s.buildInProbs()
			if (s.nodeProbs != nil) != tc.perNode || (s.inProbs != nil) == tc.perNode {
				t.Fatalf("graph %d %s: per-node %v, per-edge %v, want per-node %v",
					gi, tc.name, s.nodeProbs != nil, s.inProbs != nil, tc.perNode)
			}
			if s.inProbs != nil && len(s.inProbs) != len(tc.probs) {
				t.Fatalf("graph %d %s: %d in-CSR probabilities for %d edges", gi, tc.name, len(s.inProbs), len(tc.probs))
			}
			if tc.perNode {
				perNode++
			} else {
				perEdge++
			}
			for v := int32(0); v < int32(g.N()); v++ {
				sources, _ := g.InRow(v)
				for i, u := range sources {
					e, ok := g.FindEdge(u, v)
					if !ok {
						t.Fatalf("graph %d: in-edge %d->%d has no EdgeID", gi, u, v)
					}
					if got := walkProb(s, v, i); got != tc.probs[e] {
						t.Fatalf("graph %d %s: in-edge %d of %d (%d->%d) flips %v, FindEdge gives %v",
							gi, tc.name, i, v, u, v, got, tc.probs[e])
					}
				}
			}
		}
	}
	if perEdge < 10 || perNode < 10 {
		t.Fatalf("%d per-edge and %d per-node layouts checked, want ≥ 10 of each", perEdge, perNode)
	}
}

// TestOneULPKeepsPerEdge: weighted cascade on the hub graph with one
// in-edge of a hub row moved by one ulp — the row's first, a middle one or
// its last — is no longer one probability per row: the sampler keeps the
// per-edge vector, and its samples still match the reference loop.
func TestOneULPKeepsPerEdge(t *testing.T) {
	g, _, ctps := hubGraph(t, 15)
	sources, _ := g.InRow(0)
	for _, k := range []int{0, len(sources) / 2, len(sources) - 1} {
		probs := weightedCascade(g)
		e, _ := g.FindEdge(sources[k], 0)
		probs[e] = math.Nextafter32(probs[e], 1)
		s := NewSampler(g, probs, ctps)
		sc, ref := s.newScratch(), &refScratch{}
		rng, refRng := xrand.New(3), xrand.New(3)
		for i := 0; i < 500; i++ {
			if got, want := s.sampleScratch(sc, rng, true), referenceSample(g, probs, ctps, ref, refRng, true); !slices.Equal(got, want) {
				t.Fatalf("edge %d of the hub row: sample %d differs from the reference", k, i)
			}
		}
		if s.inProbs == nil || s.nodeProbs != nil {
			t.Fatalf("edge %d of the hub row one ulp off: per-edge %v, per-node %v", k, s.inProbs != nil, s.nodeProbs != nil)
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
		{"hubs weighted cascade", hubG, weightedCascade(hubG), hubCTPs, 3000},
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
			if perNode := tc.name != "hubs"; (s.nodeProbs != nil) != perNode {
				t.Fatalf("%s: per-node probabilities %v, want %v", tc.name, s.nodeProbs != nil, perNode)
			}
		}
	}
}

// TestStreamArenasMatchReference rebuilds the arena of SampleRangeRRInto
// block by block from the reference loop and requires the same offsets and
// the same member array: on the hub graph's per-edge probabilities, and on
// a sparse random graph's weighted cascade under worker caps 1, 2, 3 and 8
// with block counts below, at and above the reserve's sample, drawn onto
// an empty family, and onto one that already holds the stream's first
// blocks, as growth makes — past the ring's span under caps 1 and 2 (the
// span's wait itself is TestStreamRingWaitsPastSpan's).
func TestStreamArenasMatchReference(t *testing.T) {
	defer SetMaxWorkers(MaxWorkers())
	hub, probs, _ := hubGraph(t, 12)
	b, r := graph.NewBuilder(2000), xrand.New(12)
	for k := 0; k < 5000; k++ {
		if u, v := int32(r.IntN(2000)), int32(r.IntN(2000)); u != v {
			b.AddEdge(u, v)
		}
	}
	sparse := b.MustBuild()
	wc := weightedCascade(sparse)
	const from = 2
	refs := map[*float32][][]int32{}
	// reference returns the reference loop's sets of blocks [0, blocks).
	reference := func(g *graph.Graph, probs []float32, blocks int) [][]int32 {
		sets := refs[&probs[0]]
		if have := len(sets) / StreamBlockSize; have < blocks {
			ref, rng := &refScratch{}, xrand.New(5)
			for b := have; b < blocks; b++ {
				brng := rng.Split(uint64(b))
				for i := 0; i < StreamBlockSize; i++ {
					sets = append(sets, slices.Clone(referenceSample(g, probs, nil, ref, brng, false)))
				}
			}
			refs[&probs[0]] = sets
		}
		return sets[:blocks*StreamBlockSize]
	}
	check := func(name string, g *graph.Graph, probs []float32, blocks int, grown bool) {
		t.Helper()
		s := NewSampler(g, probs, nil)
		got, start := NewSetFamily(), from
		if grown {
			s.SampleRangeRRInto(0, from*StreamBlockSize, xrand.New(5), got)
			start = 0
		}
		s.SampleRangeRRInto(from*StreamBlockSize, (from+blocks)*StreamBlockSize, xrand.New(5), got)
		want := FamilyFromSets(reference(g, probs, from+blocks)[start*StreamBlockSize:])
		if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.members, want.members) {
			t.Fatalf("%s: arena differs from the reference (%d sets / %d members, want %d / %d)",
				name, got.Len(), got.NumMembers(), want.Len(), want.NumMembers())
		}
	}
	SetMaxWorkers(0)
	check("per-edge", hub, probs, 7, false)
	for _, workers := range []int{1, 2, 3, 8} {
		SetMaxWorkers(workers)
		for _, blocks := range []int{reserveSampleBlocks - 1, reserveSampleBlocks, reserveSampleBlocks + 3} {
			check(fmt.Sprintf("weighted cascade, %d workers, %d blocks", workers, blocks), sparse, wc, blocks, false)
		}
		blocks := reserveSampleBlocks + 3
		if workers <= 2 {
			blocks = ringSpanPerWorker*workers + 3
		}
		check(fmt.Sprintf("weighted cascade, %d workers, %d blocks onto a grown family", workers, blocks), sparse, wc, blocks, true)
	}
}

// TestFirstSampleConcurrent fires the first sample of a fresh Sampler from
// eight goroutines at once: the probability layout, built by whichever
// gets there first, is the only state samples share. Per-edge and
// weighted-cascade (per-node) probabilities, RR and RRC walks. Meant for
// -race (make race runs it; ten fresh samplers stand in for -count=10).
func TestFirstSampleConcurrent(t *testing.T) {
	g, probs, ctps := hubGraph(t, 13)
	for _, vec := range []struct {
		name  string
		probs []float32
	}{{"per-edge", probs}, {"weighted cascade", weightedCascade(g)}} {
		for _, withCTP := range []bool{false, true} {
			for round := 0; round < 10; round++ {
				s := NewSampler(g, vec.probs, ctps)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w := uint64(0); w < 8; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got := s.sampleScratch(s.newScratch(), xrand.New(w), withCTP)
						want := referenceSample(g, vec.probs, ctps, &refScratch{}, xrand.New(w), withCTP)
						if !slices.Equal(got, want) {
							t.Errorf("%s ctp=%v round %d worker %d: first sample has %d members, reference %d, or the same in another order",
								vec.name, withCTP, round, w, len(got), len(want))
						}
					}()
				}
				close(start)
				wg.Wait()
			}
		}
	}
}
