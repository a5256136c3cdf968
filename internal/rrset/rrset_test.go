package rrset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// fig1 builds the paper's Figure 1 gadget (see diffusion tests).
func fig1(t testing.TB) (*graph.Graph, []float32) {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 5)
	b.AddEdge(4, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []float32{0.2, 0.2, 0.5, 0.5, 0.1, 0.1}
}

// TestRRUnbiased verifies Proposition 1: n·E[F_R(S)] = σ_ic(S), using the
// exact IC spread on the Figure 1 gadget as ground truth.
func TestRRUnbiased(t *testing.T) {
	g, probs := fig1(t)
	s := NewSampler(g, probs, nil)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, StreamCeil(200000), xrand.New(1), fam)
	sets := fam.View()

	sim := diffusion.NewSimulator(g, topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: 6, P: 1}})
	for _, seeds := range [][]int32{{2}, {0, 1}, {0, 1, 2, 3, 4, 5}, {5}} {
		exact := diffusion.ExactSpreadIC(sim, seeds)
		est := float64(g.N()) * FracCovered(sets, seeds, g.N())
		if math.Abs(est-exact) > 0.03 {
			t.Errorf("seeds %v: RR estimate %.4f vs exact IC spread %.4f", seeds, est, exact)
		}
	}
}

// TestRRCUnbiased verifies Lemma 2: n·E[F_Q(S)] = σ_icctp(S) (IC with CTP
// coins on seeds), again against exact enumeration.
func TestRRCUnbiased(t *testing.T) {
	g, probs := fig1(t)
	ctp := topic.ConstCTP{Nodes: 6, P: 0.6}
	s := NewSampler(g, probs, ctp)
	fam := NewSetFamily()
	s.SampleRangeRRCInto(0, StreamCeil(300000), xrand.New(2), fam)
	sets := fam.View()

	sim := diffusion.NewSimulator(g, topic.ItemParams{Probs: probs, CTPs: ctp})
	for _, seeds := range [][]int32{{2}, {0, 1}, {0, 1, 2, 3, 4, 5}} {
		exact := diffusion.ExactSpread(sim, seeds)
		est := float64(g.N()) * FracCovered(sets, seeds, g.N())
		if math.Abs(est-exact) > 0.03 {
			t.Errorf("seeds %v: RRC estimate %.4f vs exact CTP spread %.4f", seeds, est, exact)
		}
	}
}

// TestTheorem5 verifies that the δ-scaled RR marginal equals the RRC
// marginal in expectation: δ(u)(E[F_R(S∪u)]−E[F_R(S)]) = E[F_Q(S∪u)]−E[F_Q(S)],
// for the first-seed case where the identity is exact (S = ∅), and checks
// the lower-bound direction for a non-empty S.
func TestTheorem5(t *testing.T) {
	g, probs := fig1(t)
	ctp := topic.ConstCTP{Nodes: 6, P: 0.5}
	s := NewSampler(g, probs, ctp)
	rrFam, rrcFam := NewSetFamily(), NewSetFamily()
	s.SampleRangeRRInto(0, StreamCeil(300000), xrand.New(3), rrFam)
	s.SampleRangeRRCInto(0, StreamCeil(300000), xrand.New(4), rrcFam)
	rr, rrc := rrFam.View(), rrcFam.View()

	u := int32(2) // v3, the hub
	// S = ∅: exact identity.
	lhs := 0.5 * (FracCovered(rr, []int32{u}, 6) - 0)
	rhs := FracCovered(rrc, []int32{u}, 6) - 0
	if math.Abs(lhs-rhs) > 0.005 {
		t.Errorf("Theorem 5 (S=∅): δ·RR marginal %.5f vs RRC marginal %.5f", lhs, rhs)
	}
	// S = {0,1}: δ-scaled RR marginal must not exceed the RRC marginal
	// (it is a lower bound when earlier seeds carry CTP coins).
	S := []int32{0, 1}
	SU := []int32{0, 1, u}
	lhs = 0.5 * (FracCovered(rr, SU, 6) - FracCovered(rr, S, 6))
	rhs = FracCovered(rrc, SU, 6) - FracCovered(rrc, S, 6)
	if lhs > rhs+0.005 {
		t.Errorf("Theorem 5 (S≠∅): δ·RR marginal %.5f exceeds RRC marginal %.5f", lhs, rhs)
	}
}

func TestSampleRRContainsRoot(t *testing.T) {
	// With all probabilities zero every RR-set is exactly its root.
	g, _ := fig1(t)
	probs := make([]float32, g.M())
	s := NewSampler(g, probs, nil)
	r := xrand.New(6)
	for i := 0; i < 200; i++ {
		set := s.sampleScratch(s.newScratch(), r, false)
		if len(set) != 1 {
			t.Fatalf("zero-prob RR-set has %d nodes", len(set))
		}
	}
}

func TestSampleRRFullProbs(t *testing.T) {
	// With all probabilities one, the RR-set is the full ancestor closure.
	g, _ := fig1(t)
	probs := make([]float32, g.M())
	for i := range probs {
		probs[i] = 1
	}
	s := NewSampler(g, probs, nil)
	r := xrand.New(7)
	for i := 0; i < 200; i++ {
		set := s.sampleScratch(s.newScratch(), r, false)
		root := set[0]
		// Ancestors per the gadget topology.
		wantSize := map[int32]int{0: 1, 1: 1, 2: 3, 3: 4, 4: 4, 5: 6}[root]
		if len(set) != wantSize {
			t.Fatalf("root %d: set size %d, want %d", root, len(set), wantSize)
		}
	}
}

func TestRRCPanicsWithoutCTP(t *testing.T) {
	g, probs := fig1(t)
	s := NewSampler(g, probs, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SampleRangeRRCInto(0, StreamBlockSize, xrand.New(1), NewSetFamily())
}

func TestNewSamplerValidation(t *testing.T) {
	g, probs := fig1(t)
	t.Run("probs", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewSampler(g, probs[:3], nil)
	})
	t.Run("ctp", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewSampler(g, probs, topic.ConstCTP{Nodes: 3, P: 1})
	})
}

func TestWidth(t *testing.T) {
	g, _ := fig1(t)
	// indegrees: v1,v2:0, v3:2, v4,v5:1, v6:2
	if w := Width(g, []int32{0, 1}); w != 0 {
		t.Errorf("width of sources = %d", w)
	}
	if w := Width(g, []int32{2, 5}); w != 4 {
		t.Errorf("width of {v3,v6} = %d, want 4", w)
	}
}

func TestFracCoveredEdges(t *testing.T) {
	if f := FracCovered(NewSetFamily().View(), []int32{1}, 5); f != 0 {
		t.Errorf("empty family coverage %v", f)
	}
	sets := FamilyFromSets([][]int32{{0, 1}, {2}, {3, 4}}).View()
	if f := FracCovered(sets, nil, 5); f != 0 {
		t.Errorf("empty seed coverage %v", f)
	}
	if f := FracCovered(sets, []int32{2, 3}, 5); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("coverage %v, want 2/3", f)
	}
}

func TestCollectionGreedyMaxCover(t *testing.T) {
	c := NewCollection(5)
	c.AddBatch([][]int32{{0, 1}, {0, 2}, {3}, {0}, {3, 4}})
	if c.NumSets() != 5 {
		t.Fatalf("NumSets %d", c.NumSets())
	}
	u, cov, ok := c.BestNode(nil)
	if !ok || u != 0 || cov != 3 {
		t.Fatalf("BestNode = %d,%d,%v; want node 0 cov 3", u, cov, ok)
	}
	covered := c.CoverNode(u)
	c.Drop(u)
	if covered != 3 || c.NumCovered() != 3 {
		t.Fatalf("CoverNode covered %d (total %d)", covered, c.NumCovered())
	}
	// Residuals: node1:0, node2:0, node3:2, node4:1.
	u, cov, ok = c.BestNode(nil)
	if !ok || u != 3 || cov != 2 {
		t.Fatalf("second BestNode = %d,%d,%v; want node 3 cov 2", u, cov, ok)
	}
	c.CoverNode(u)
	c.Drop(u)
	if _, _, ok := c.BestNode(nil); ok {
		t.Fatal("expected no remaining coverage")
	}
	if c.NumCovered() != 5 {
		t.Fatalf("NumCovered %d, want 5", c.NumCovered())
	}
}

func TestCollectionEligibilityFilter(t *testing.T) {
	c := NewCollection(4)
	c.AddBatch([][]int32{{0, 1}, {0, 1}, {1, 2}})
	blocked := map[int32]bool{0: true, 1: true}
	u, cov, ok := c.BestNode(func(v int32) bool { return !blocked[v] })
	if !ok || u != 2 || cov != 1 {
		t.Fatalf("filtered BestNode = %d,%d,%v", u, cov, ok)
	}
	// Filter drop is permanent: even with an always-true filter now, 0 and 1
	// remain dead (the caller contract is monotone ineligibility).
	c.CoverNode(2)
	c.Drop(2)
	if _, _, ok := c.BestNode(nil); ok {
		t.Fatal("dropped nodes resurfaced")
	}
}

func TestCollectionGrowth(t *testing.T) {
	c := NewCollection(3)
	c.Add([]int32{0})
	u, _, _ := c.BestNode(nil)
	if u != 0 {
		t.Fatalf("BestNode %d", u)
	}
	c.CoverNode(0)
	// Append two more sets; node 0 gains residual coverage again and the
	// heap must see the refreshed value.
	boundary := c.NumSets()
	c.AddBatch([][]int32{{0, 2}, {0}, {1}})
	u, cov, ok := c.BestNode(nil)
	if !ok || u != 0 || cov != 2 {
		t.Fatalf("after growth BestNode = %d,%d,%v; want 0,2", u, cov, ok)
	}
	// UpdateEstimates path: credit node 0 with new sets only.
	got := c.CountAndCoverFrom(0, boundary)
	if got != 2 {
		t.Fatalf("CountAndCoverFrom = %d, want 2", got)
	}
	u, cov, ok = c.BestNode(nil)
	if !ok || u != 1 || cov != 1 {
		t.Fatalf("after credit BestNode = %d,%d,%v; want 1,1", u, cov, ok)
	}
}

// TestCollectionMemBytesPinned pins the footprint TIRM reports for Table 4
// on a hand-sized collection: 130 two-member sets {i mod 4, (i+1) mod 4}
// over 4 nodes, added as one id-row segment. The view holds 260 members and
// 131 offsets (1564 bytes), the index 260 row entries and 5 row offsets
// (1060), the covered bitmap ⌈130/64⌉ = 3 words (24), the coverage counters
// and dead flags 5 bytes a node (20). Covering sets flips bits and never
// grows the bitmap; a synced heap adds 8 bytes per live entry.
func TestCollectionMemBytesPinned(t *testing.T) {
	sets := make([][]int32, 130)
	for i := range sets {
		sets[i] = []int32{int32(i % 4), int32((i + 1) % 4)}
	}
	c := NewCollection(4)
	c.AddBatch(sets)
	if got, want := c.MemBytes(), int64(1564+1060+24+20); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
	c.SyncHeap()
	if got, want := c.MemBytes(), int64(1564+1060+24+20+4*8); got != want {
		t.Fatalf("MemBytes with the heap synced = %d, want %d", got, want)
	}
	if covered := c.CoverNode(0); covered != 65 {
		t.Fatalf("CoverNode(0) covered %d sets, want 65", covered)
	}
	if got, want := c.MemBytes(), int64(1564+1060+24+20+len(c.pq)*8); got != want {
		t.Fatalf("MemBytes after a cover = %d, want %d", got, want)
	}
}

// TestCollectionMatchesBruteForce cross-checks the lazy-heap greedy against
// a brute-force max-cover on random inputs (property test).
func TestCollectionMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.IntN(6)
		numSets := 1 + r.IntN(30)
		sets := make([][]int32, numSets)
		for i := range sets {
			sz := 1 + r.IntN(3)
			s := map[int32]bool{}
			for len(s) < sz {
				s[int32(r.IntN(n))] = true
			}
			for u := range s {
				sets[i] = append(sets[i], u)
			}
		}
		c := NewCollection(n)
		c.AddBatch(sets)
		coveredBrute := make([]bool, numSets)
		for step := 0; step < 3; step++ {
			// Brute-force best.
			bestCov := 0
			for u := 0; u < n; u++ {
				cov := 0
				for i, s := range sets {
					if coveredBrute[i] {
						continue
					}
					for _, w := range s {
						if int(w) == u {
							cov++
							break
						}
					}
				}
				if cov > bestCov {
					bestCov = cov
				}
			}
			u, cov, ok := c.BestNode(nil)
			if bestCov == 0 {
				return !ok
			}
			if !ok || cov != bestCov {
				return false
			}
			// Apply the heap's choice to both sides.
			c.CoverNode(u)
			c.Drop(u)
			for i, s := range sets {
				if coveredBrute[i] {
					continue
				}
				for _, w := range s {
					if w == u {
						coveredBrute[i] = true
						break
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLnChoose(t *testing.T) {
	// ln C(10, 3) = ln 120
	if got := LnChoose(10, 3); math.Abs(got-math.Log(120)) > 1e-9 {
		t.Errorf("LnChoose(10,3) = %v", got)
	}
	if got := LnChoose(5, 0); got != 0 {
		t.Errorf("LnChoose(5,0) = %v", got)
	}
	if got := LnChoose(5, 5); got != 0 {
		t.Errorf("LnChoose(5,5) = %v", got)
	}
	if got := LnChoose(5, 6); !math.IsInf(got, -1) {
		t.Errorf("LnChoose(5,6) = %v", got)
	}
	// Symmetry C(n,s) = C(n,n-s).
	if a, b := LnChoose(100, 30), LnChoose(100, 70); math.Abs(a-b) > 1e-6 {
		t.Errorf("LnChoose symmetry: %v vs %v", a, b)
	}
}

func TestLFormula(t *testing.T) {
	// Hand-evaluate Eq. 5 for n=1000, s=10, eps=0.1, ell=1, OPT=50.
	n, s := int64(1000), int64(10)
	eps, ell, opt := 0.1, 1.0, 50.0
	want := (8 + 2*eps) * 1000 * (ell*math.Log(1000) + LnChoose(n, s) + math.Ln2) / (opt * eps * eps)
	if got := L(n, s, eps, ell, opt); math.Abs(got-want) > 1e-6 {
		t.Errorf("L = %v, want %v", got, want)
	}
	// Larger OPT ⇒ fewer samples; larger s ⇒ more samples.
	if L(n, s, eps, ell, 100) >= L(n, s, eps, ell, 50) {
		t.Error("L not decreasing in OPT")
	}
	if L(n, 20, eps, ell, opt) <= L(n, 10, eps, ell, opt) {
		t.Error("L not increasing in s")
	}
	if L(0, 5, eps, ell, opt) != 0 || L(n, 0, eps, ell, opt) != 0 {
		t.Error("degenerate L not zero")
	}
}

func TestTheta(t *testing.T) {
	th := Theta(1000, 10, 0.1, 1, 50, 100, 0)
	if th < 100 {
		t.Errorf("Theta below floor: %d", th)
	}
	if got := Theta(10, 1, 10, 1, 1e12, 50, 0); got != 50 {
		t.Errorf("floor not applied: %d", got)
	}
	if got := Theta(1000, 10, 0.01, 1, 1, 1, 500); got != 500 {
		t.Errorf("ceiling not applied: %d", got)
	}
	// A bound past 2^63 saturates instead of wrapping below the floor: a
	// tighter ε never gets a smaller sample.
	if got := Theta(30000, 1, 1e-9, 1, 10, 4096, 200000); got != 200000 {
		t.Errorf("ε=1e-9 under a 200000 cap: %d, want the cap", got)
	}
	if got := Theta(30000, 1, 1e-9, 1, 10, 4096, 0); got != math.MaxInt {
		t.Errorf("ε=1e-9 uncapped: %d, want math.MaxInt", got)
	}
}

func TestCollectionTopNodes(t *testing.T) {
	c := NewCollection(5)
	c.AddBatch([][]int32{{0, 1}, {0, 2}, {0}, {3}, {3, 4}, {1}})
	nodes, covs := c.TopNodes(3, nil)
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	// Coverage: node0=3, node3=2, node1=2 (ties broken arbitrarily).
	if nodes[0] != 0 || covs[0] != 3 {
		t.Fatalf("top = (%d,%d), want node 0 cov 3", nodes[0], covs[0])
	}
	for i := 1; i < len(covs); i++ {
		if covs[i] > covs[i-1] {
			t.Fatalf("covs not sorted: %v", covs)
		}
	}
	// Heap intact: BestNode still works and agrees.
	u, cov, ok := c.BestNode(nil)
	if !ok || u != 0 || cov != 3 {
		t.Fatalf("BestNode after TopNodes = %d,%d,%v", u, cov, ok)
	}
	// Repeated call yields the same answer (no destructive pops).
	nodes2, _ := c.TopNodes(3, nil)
	if nodes2[0] != nodes[0] {
		t.Fatal("TopNodes not repeatable")
	}
	// k larger than distinct nodes.
	all, _ := c.TopNodes(100, nil)
	if len(all) != 5 {
		t.Fatalf("TopNodes(100) returned %d nodes", len(all))
	}
}

func TestWeightedTopNodes(t *testing.T) {
	c := NewWeightedCollection(4)
	c.AddBatch([][]int32{{0, 1}, {0}, {2}, {2}, {2}})
	nodes, wcovs := c.TopNodes(2, nil)
	if len(nodes) != 2 || nodes[0] != 2 || wcovs[0] != 3 {
		t.Fatalf("top = %v %v", nodes, wcovs)
	}
	c.Commit(2, 0.9)
	c.Drop(2)
	nodes, wcovs = c.TopNodes(2, nil)
	if nodes[0] != 0 || wcovs[0] != 2 {
		t.Fatalf("after commit top = %v %v", nodes, wcovs)
	}
}

func TestTopNodesEligibility(t *testing.T) {
	c := NewCollection(3)
	c.AddBatch([][]int32{{0}, {0}, {1}, {2}})
	nodes, _ := c.TopNodes(3, func(u int32) bool { return u != 0 })
	for _, u := range nodes {
		if u == 0 {
			t.Fatal("ineligible node returned")
		}
	}
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes", len(nodes))
	}
}
