package rrset_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// TestDBLPSamplesPerNode: on a small DBLP analogue (weighted cascade,
// p(u,v) = 1/indeg(v) for every ad) no ad's sampler holds a per-edge
// probability vector, and 200 000 sets drawn through per-node
// probabilities equal, offset for offset and member for member, those
// drawn through the per-edge path.
func TestDBLPSamplesPerNode(t *testing.T) {
	inst := gen.DBLP(gen.Options{Seed: 1, Scale: 0.05})
	for j, ad := range inst.Ads {
		s := rrset.NewSampler(inst.G, ad.Params.Probs, nil)
		s.SampleRangeRRInto(0, rrset.StreamBlockSize, xrand.New(1), rrset.NewSetFamily())
		if rrset.HoldsPerEdge(s) {
			t.Fatalf("ad %d: the sampler holds a per-edge probability vector", j)
		}
	}
	const sets = 200_000
	to := rrset.StreamCeil(sets)
	probs := inst.Ads[0].Params.Probs
	perNode, perEdge := rrset.NewSampler(inst.G, probs, nil), rrset.NewSampler(inst.G, probs, nil)
	rrset.ForcePerEdge(perEdge)
	got, want := rrset.NewSetFamily(), rrset.NewSetFamily()
	perNode.SampleRangeRRInto(0, to, xrand.New(7), got)
	perEdge.SampleRangeRRInto(0, to, xrand.New(7), want)
	if rrset.HoldsPerEdge(perNode) || !rrset.HoldsPerEdge(perEdge) {
		t.Fatal("the two samplers do not hold the layouts under test")
	}
	if got.Len() != want.Len() || got.NumMembers() != want.NumMembers() {
		t.Fatalf("%d sets / %d members, per-edge path %d / %d", got.Len(), got.NumMembers(), want.Len(), want.NumMembers())
	}
	for i := 0; i < got.Len(); i++ {
		if !slices.Equal(got.Set(i), want.Set(i)) {
			t.Fatalf("set %d differs from the per-edge path's", i)
		}
	}
}
