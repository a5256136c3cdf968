package rrset_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
)

// twoForms holds two indexes over one instance, built with the same seed
// and options: rows keeps the id rows BuildInverted writes over
// LazyMinNodes nodes or more, so its collections start lazy; joined has
// every ad's index rewritten in place as the cover join, so its
// collections run the eager walks over records.
type twoForms struct {
	rows, joined *core.Index
	invs         []*rrset.Inverted // joined's indexes, as rewritten
}

// buildTwoForms builds both indexes and rewrites the joined side's.
func buildTwoForms(t *testing.T, inst *core.Instance, opts core.TIRMOptions) *twoForms {
	t.Helper()
	if n := inst.G.N(); n < rrset.LazyMinNodes {
		t.Fatalf("%d nodes, under rrset.LazyMinNodes: nothing would start lazy", n)
	}
	rows, err := core.BuildIndex(inst, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := core.BuildIndex(inst, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &twoForms{rows: rows, joined: joined}
	for j := range inst.Ads {
		if _, inv, _ := rows.CurrentEpoch().AdView(j, 1); rrset.Joined(inv) {
			t.Fatalf("ad %d: BuildInverted joined an index over %d nodes", j, inst.G.N())
		}
		_, inv, _ := joined.CurrentEpoch().AdView(j, 1)
		rrset.JoinRows(inv)
		f.invs = append(f.invs, inv)
	}
	return f
}

// allocate runs req on both indexes and fails the test unless the two
// results agree on seeds, revenue bits, θ, seed targets, iterations and
// sets sampled, and both pass core.CheckAllocation. It returns the id-row
// side's result.
func (f *twoForms) allocate(t *testing.T, label string, req core.Request) *core.TIRMResult {
	t.Helper()
	inst := f.rows.Inst()
	want, err := core.AllocateFromIndex(f.joined, req)
	if err != nil {
		t.Fatalf("%s: cover join: %v", label, err)
	}
	got, err := core.AllocateFromIndex(f.rows, req)
	if err != nil {
		t.Fatalf("%s: id rows: %v", label, err)
	}
	for _, r := range []*core.TIRMResult{want, got} {
		if err := core.CheckAllocation(inst, req, r); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for i := range want.Alloc.Seeds {
		if !slices.Equal(want.Alloc.Seeds[i], got.Alloc.Seeds[i]) {
			t.Fatalf("%s: ad %d seeds %v over the join, %v over id rows", label, i, want.Alloc.Seeds[i], got.Alloc.Seeds[i])
		}
		if w, g := math.Float64bits(want.EstRevenue[i]), math.Float64bits(got.EstRevenue[i]); w != g {
			t.Fatalf("%s: ad %d revenue bits %x over the join, %x over id rows", label, i, w, g)
		}
	}
	if !slices.Equal(want.FinalTheta, got.FinalTheta) || !slices.Equal(want.FinalSeedTarget, got.FinalSeedTarget) ||
		want.Iterations != got.Iterations || want.TotalSetsSampled != got.TotalSetsSampled {
		t.Fatalf("%s: θ %v, targets %v, %d iterations, %d sets sampled over the join; %v, %v, %d, %d over id rows", label,
			want.FinalTheta, want.FinalSeedTarget, want.Iterations, want.TotalSetsSampled,
			got.FinalTheta, got.FinalSeedTarget, got.Iterations, got.TotalSetsSampled)
	}
	return got
}

// stillJoined fails the test if a request replaced one of the joined
// side's rewritten indexes (a rebuild would bring id rows back).
func (f *twoForms) stillJoined(t *testing.T) {
	t.Helper()
	for j, want := range f.invs {
		if _, inv, _ := f.joined.CurrentEpoch().AdView(j, 1); inv != want || !rrset.Joined(inv) {
			t.Fatalf("ad %d: the cover-join index was replaced mid-test", j)
		}
	}
}

// TestRowFormsAllocateAlike: on the DBLP analogue at a quarter of paper
// scale (79 250 nodes, past LazyMinNodes), allocations over the id rows
// BuildInverted writes there — lazy collections — equal those over the same
// samples' cover joins — eager ones — for budget × {0.5, 1.5} × κ ∈ {1, 2,
// 3} × λ ∈ {0, 0.5}, an ad subset, a residual request and soft coverage.
func TestRowFormsAllocateAlike(t *testing.T) {
	inst := gen.DBLP(gen.Options{Seed: 1, Scale: 0.25})
	opts := core.TIRMOptions{MaxTheta: 4096}
	f := buildTwoForms(t, inst, opts)
	seeded := 0
	for c := 0; c < 12; c++ {
		factor, kappa, lambda := []float64{0.5, 1.5}[c%2], c/2%3+1, []float64{0, 0.5}[c/6]
		budgets := make([]float64, len(inst.Ads))
		for i, ad := range inst.Ads {
			budgets[i] = ad.Budget * factor
		}
		req := core.Request{Opts: opts, Budgets: budgets, Kappa: core.ConstKappa(kappa), Lambda: &lambda}
		res := f.allocate(t, fmt.Sprintf("budget×%v κ=%d λ=%v", factor, kappa, lambda), req)
		for _, s := range res.Alloc.Seeds {
			seeded += len(s)
		}
	}
	if seeded == 0 {
		t.Fatal("the deck allocated no seed at all")
	}
	spent := make([]float64, len(inst.Ads))
	for i, ad := range inst.Ads {
		spent[i] = ad.Budget * float64(i) / float64(len(inst.Ads))
	}
	f.allocate(t, "ads 1, 3", core.Request{Opts: opts, Ads: []int{3, 1}})
	f.allocate(t, "residual", core.Request{Opts: opts, SpentBudget: spent})
	soft := opts
	soft.SoftCoverage = true
	f.allocate(t, "soft", core.Request{Opts: soft})
	f.stillJoined(t)
}

// hubInstance is a star over LazyMinNodes+1000 nodes: the hub and every
// leaf point at each other. A leaf's RR set reaches the hub with
// probability 0.02 and then about 2 % of the leaves, and such a set spans
// half the graph's edges, so KPT(s) flattens as s grows and Eq. 5's θ
// rises with the seed target — growth that DBLP, whose KPT grows linearly
// in s, never shows.
func hubInstance() *core.Instance {
	n := rrset.LazyMinNodes + 1000
	b := graph.NewBuilderHint(n, 2*(n-1))
	for i := int32(1); i < int32(n); i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, 0)
	}
	g := b.MustBuild()
	probs := make([]float32, g.M())
	for e := range probs {
		probs[e] = 0.02
	}
	ads := make([]core.Ad, 2)
	for i := range ads {
		ads[i] = core.Ad{Name: fmt.Sprint("hub", i), Budget: 900 + 400*float64(i), CPE: 1,
			Params: topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: n, P: 0.5}}}
	}
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(1)}
}

// TestRowFormsAllocateAlikeThroughGrowth: a request whose θ grows mid-run
// appends growth segments, which turns the lazy collections eager through
// materialize; the allocation still equals the cover join's.
func TestRowFormsAllocateAlikeThroughGrowth(t *testing.T) {
	opts := core.TIRMOptions{Eps: 8, MinTheta: 256, MaxTheta: 1 << 13}
	f := buildTwoForms(t, hubInstance(), opts)
	res := f.allocate(t, "growth", core.Request{Opts: opts})
	if res.TotalSetsSampled == 0 {
		t.Fatalf("θ %v: no ad's θ grew past its opening", res.FinalTheta)
	}
	f.stillJoined(t)
}
