package tim

import (
	"math"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

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

// exactBestK brute-forces the optimal IC spread over all k-subsets.
func exactBestK(t *testing.T, g *graph.Graph, probs []float32, k int) (best float64, bestSet []int32) {
	t.Helper()
	sim := diffusion.NewSimulator(g, topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: g.N(), P: 1}})
	n := g.N()
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) == k {
			sp := diffusion.ExactSpreadIC(sim, cur)
			if sp > best {
				best = sp
				bestSet = append([]int32{}, cur...)
			}
			return
		}
		for v := start; v < n; v++ {
			rec(v+1, append(cur, int32(v)))
		}
	}
	rec(0, nil)
	return best, bestSet
}

func TestMaximizeK1PicksHub(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	res := Maximize(s, 1, xrand.New(1), Options{Eps: 0.1, MinTheta: 50000})
	if len(res.Seeds) != 1 || res.Seeds[0] != 2 {
		t.Fatalf("k=1 seeds = %v, want [2] (the hub v3)", res.Seeds)
	}
	// Exact σ_ic({v3}) = 1 + 0.5 + 0.5 + (1 − 0.95²) = 2.0975.
	if math.Abs(res.EstSpread-2.0975) > 0.05 {
		t.Errorf("estimated spread %.4f, want ≈2.0975", res.EstSpread)
	}
}

func TestMaximizeNearOptimal(t *testing.T) {
	g, probs := fig1(t)
	for k := 1; k <= 3; k++ {
		opt, _ := exactBestK(t, g, probs, k)
		s := rrset.NewSampler(g, probs, nil)
		res := Maximize(s, k, xrand.New(uint64(k)), Options{Eps: 0.1, MinTheta: 50000})
		if len(res.Seeds) != k {
			t.Fatalf("k=%d: got %d seeds", k, len(res.Seeds))
		}
		sim := diffusion.NewSimulator(g, topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: g.N(), P: 1}})
		got := diffusion.ExactSpreadIC(sim, res.Seeds)
		// TIM guarantees (1−1/e−ε)·OPT; on this tiny graph greedy is
		// near-exact, so check a generous 0.8·OPT.
		if got < 0.8*opt {
			t.Errorf("k=%d: TIM spread %.4f < 0.8·OPT (%.4f)", k, got, opt)
		}
	}
}

func TestMaximizeKLargerThanN(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	res := Maximize(s, 100, xrand.New(2), Options{MinTheta: 5000})
	if len(res.Seeds) > 6 {
		t.Fatalf("selected %d seeds from a 6-node graph", len(res.Seeds))
	}
}

func TestMaximizeK0(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	res := Maximize(s, 0, xrand.New(3), Options{})
	if len(res.Seeds) != 0 || res.EstSpread != 0 {
		t.Fatalf("k=0 result %+v", res)
	}
}

func TestEstimateKPTBounds(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	// OPT_1 = 2.0975 (hub); KPT must be a sane lower bound: ≥ 1, and not
	// wildly above OPT_1.
	kpt := EstimateKPT(s, 1, xrand.New(4), Options{})
	if kpt < 1 {
		t.Errorf("KPT %.4f < 1", kpt)
	}
	if kpt > 2.0975*1.5 {
		t.Errorf("KPT %.4f far above OPT_1 = 2.0975", kpt)
	}
	// For s = n the spread is at most n.
	kptN := EstimateKPT(s, 6, xrand.New(5), Options{})
	if kptN < 6 || kptN > 6.5 {
		// OPT_6 = 6 (all nodes seeded); floor at s guarantees ≥ 6.
		t.Errorf("KPT(s=6) = %.4f, want ≈6", kptN)
	}
}

func TestEstimateKPTDegenerate(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild() // no edges
	s := rrset.NewSampler(g, nil, nil)
	if kpt := EstimateKPT(s, 2, xrand.New(6), Options{}); kpt != 2 {
		t.Errorf("edgeless KPT = %v, want floor 2", kpt)
	}
	if kpt := EstimateKPT(s, 0, xrand.New(7), Options{}); kpt != 1 {
		t.Errorf("s=0 KPT = %v, want 1", kpt)
	}
}

func TestMaximizeDeterministic(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	a := Maximize(s, 2, xrand.New(9), Options{MinTheta: 20000})
	b := Maximize(s, 2, xrand.New(9), Options{MinTheta: 20000})
	// The sets come from the block stream, so the worker count must not
	// move the result either.
	rrset.SetMaxWorkers(1)
	defer rrset.SetMaxWorkers(0)
	c := Maximize(s, 2, xrand.New(9), Options{MinTheta: 20000})
	for _, other := range []Result{b, c} {
		if len(a.Seeds) != len(other.Seeds) || a.EstSpread != other.EstSpread || a.KPT != other.KPT {
			t.Fatal("Maximize not deterministic")
		}
		for i := range a.Seeds {
			if a.Seeds[i] != other.Seeds[i] {
				t.Fatal("Maximize seed order not deterministic")
			}
		}
	}
}

func TestMaxThetaCap(t *testing.T) {
	g, probs := fig1(t)
	s := rrset.NewSampler(g, probs, nil)
	res := Maximize(s, 2, xrand.New(10), Options{MinTheta: 100, MaxTheta: 200})
	if res.Theta > 200 {
		t.Errorf("theta %d exceeds cap", res.Theta)
	}
}
