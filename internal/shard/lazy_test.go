package shard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rrset"
)

// TestLazyMatchesCoordinatorOnDBLP runs the benchmark's request deck —
// budget factor × κ × λ, 24 combinations — on the DBLP analogue at a test
// size twice the node universe at which sparse collections start lazy
// (133 140 nodes), once through core.AllocateFromIndex, whose collections keep residual
// coverage lazily, and once through the coordinator over one
// in-process shard, whose owner collections turn eager at their first
// commit and whose counter mirrors are eager throughout. Seeds and the bits
// of every revenue estimate must match, and both must pass
// core.CheckAllocation. It is the suite's one instance of DBLP's density:
// short rows, small sets, a weighted cascade.
func TestLazyMatchesCoordinatorOnDBLP(t *testing.T) {
	ctx := context.Background()
	inst := gen.DBLP(gen.Options{Seed: 1, Scale: 0.42})
	if n := inst.G.N(); n < 2*rrset.LazyMinNodes {
		t.Fatalf("the DBLP analogue has %d nodes, under twice rrset.LazyMinNodes: its collections might not start lazy", n)
	}
	opts := core.TIRMOptions{MaxTheta: 8192}
	idx, err := core.BuildIndex(inst, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	coord, _, err := NewLocalCluster(inst, 0, 1, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	seeded := 0
	for c := 0; c < 24; c++ {
		factor := []float64{0.5, 0.75, 1, 1.25}[c%4]
		kappa := []int{1, 2, 3}[c/4%3]
		lambda := []float64{0, 0.5}[c/12]
		budgets := make([]float64, len(inst.Ads))
		for i, ad := range inst.Ads {
			budgets[i] = ad.Budget * factor
		}
		req := core.Request{Opts: opts, Budgets: budgets, Kappa: core.ConstKappa(kappa), Lambda: &lambda}
		label := fmt.Sprintf("budget×%v κ=%d λ=%v", factor, kappa, lambda)
		want, err := core.AllocateFromIndex(idx, req)
		if err != nil {
			t.Fatalf("%s: single node: %v", label, err)
		}
		if want.KernelCounts[rrset.KernelBitset] != 0 {
			t.Fatalf("%s: %d collections ran the bitset kernel; DBLP's density picks sparse", label, want.KernelCounts[rrset.KernelBitset])
		}
		got, err := coord.Allocate(ctx, req)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", label, err)
		}
		mustEqualSemantic(t, label, inst, req, want, got)
		for i := range want.EstRevenue {
			if w, g := math.Float64bits(want.EstRevenue[i]), math.Float64bits(got.EstRevenue[i]); w != g {
				t.Fatalf("%s: ad %d revenue bits %x single node, %x coordinator", label, i, w, g)
			}
		}
		for _, s := range want.Alloc.Seeds {
			seeded += len(s)
		}
	}
	if seeded == 0 {
		t.Fatal("the deck allocated no seed at all")
	}
}
