package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rrset"
)

// joinInlineCap mirrors rrset's cap on the members a cover-join record
// stores inline.
const joinInlineCap = 8

// TestIndexHoldsNoIDRows: on the 600-node FLIXSTER instance, after a build
// and one allocation, the index's footprint is exactly each ad's family,
// cover join, opening and pilot widths — no id rows and no id-row offsets
// beside the join, no record holding its row's own node, no offset wider
// than 4 bytes, and (the sample being sparse) no bitmap.
func TestIndexHoldsNoIDRows(t *testing.T) {
	inst := gen.Flixster(gen.Options{Seed: 1, Scale: 0.02})
	opts := core.TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := core.BuildIndex(inst, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AllocateFromIndex(idx, core.Request{Opts: opts}); err != nil {
		t.Fatal(err)
	}
	var want int64
	for j := range inst.Ads {
		want += joinSampleBytes(idx, j, opts)
	}
	if got := idx.MemBytes(); got != want {
		t.Fatalf("index holds %d bytes, family + join + openings + widths = %d (%+d)", got, want, got-want)
	}
}

// TestSharedSampleFootprint: the five weighted-cascade ads of the DBLP
// analogue at scale 0.02 draw from one vector and so read one sample: after
// a build and one allocation the index holds exactly that sample's family,
// cover join and pilot widths, plus the one opening the ads' common θ left
// on it.
func TestSharedSampleFootprint(t *testing.T) {
	inst := gen.DBLP(gen.Options{Seed: 2, Scale: 0.02})
	opts := core.TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := core.BuildIndex(inst, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Ads) != 5 || res.OpeningsBuilt != 1 {
		t.Fatalf("%d ads built %d openings, want 5 ads and one opening", len(inst.Ads), res.OpeningsBuilt)
	}
	fam, _, _ := core.SampleParts(idx, 0)
	for j := range inst.Ads {
		if other, _, _ := core.SampleParts(idx, j); other != fam {
			t.Fatalf("ad %d holds a sample of its own", j)
		}
	}
	if got, want := idx.MemBytes(), joinSampleBytes(idx, 0, opts); got != want {
		t.Fatalf("index holds %d bytes, one sample's family + join + opening + widths = %d (%+d)", got, want, got-want)
	}
}

// joinSampleBytes is the footprint of ad j's sample under the cover join
// after one run under opts: its family, the join over its indexed sets, the
// opening and the pilot widths.
func joinSampleBytes(idx *core.Index, j int, opts core.TIRMOptions) int64 {
	n := idx.Inst().G.N()
	fam, invLen, widths := core.SampleParts(idx, j)
	// The family: a member arena and one offset per set + 1.
	family := 4*fam.NumMembers() + 4*int64(fam.Len()+1)
	// The join: a header per membership, behind each header of a set up
	// to the inline cap the set's other members, one offset per node + 1.
	join := 4 * int64(n+1)
	for i := 0; i < invLen; i++ {
		sz := int64(len(fam.Set(i)))
		rec := int64(1)
		if sz <= joinInlineCap {
			rec = sz
		}
		join += 4 * sz * rec
	}
	return family + join + openingBytes(idx, j, opts) + 8*int64(len(widths))
}

// openingBytes is the footprint of the opening one run under opts leaves
// on ad j's index: the cut vector, and the heap of every node the opened
// sets hold.
func openingBytes(idx *core.Index, j int, opts core.TIRMOptions) int64 {
	fam, _, _ := core.SampleParts(idx, j)
	live := make(map[int32]bool)
	for _, set := range fam.Prefix(core.OpeningTheta(idx, j, opts)).Sets() {
		for _, u := range set {
			live[u] = true
		}
	}
	return 4*int64(idx.Inst().G.N()) + 8*int64(len(live))
}

// TestLargeIndexHoldsIDRows: on the DBLP analogue at a quarter of paper
// scale (79 250 nodes, past rrset.LazyMinNodes), after a build and one
// allocation, the index's footprint is exactly one family — the five
// weighted-cascade ads share one sample — one 4-byte id per membership of
// the indexed sets, one row offset per node + 1, the opening and the pilot
// widths — no cover join, whose inline members no lazy walk reads, and
// (the sample being sparse) no bitmap.
func TestLargeIndexHoldsIDRows(t *testing.T) {
	inst := gen.DBLP(gen.Options{Seed: 1, Scale: 0.25})
	n := inst.G.N()
	if n < rrset.LazyMinNodes {
		t.Fatalf("the DBLP analogue has %d nodes, under rrset.LazyMinNodes", n)
	}
	opts := core.TIRMOptions{MaxTheta: 4096}
	idx, err := core.BuildIndex(inst, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AllocateFromIndex(idx, core.Request{Opts: opts}); err != nil {
		t.Fatal(err)
	}
	fam, invLen, widths := core.SampleParts(idx, 0)
	for j := range inst.Ads {
		if other, _, _ := core.SampleParts(idx, j); other != fam {
			t.Fatalf("ad %d holds a sample of its own; every DBLP ad draws from one vector", j)
		}
	}
	family := 4*fam.NumMembers() + 4*int64(fam.Len()+1)
	rows := 4*fam.Prefix(invLen).NumMembers() + 4*int64(n+1)
	want := family + rows + openingBytes(idx, 0, opts) + 8*int64(len(widths))
	if got := idx.MemBytes(); got != want {
		t.Fatalf("index holds %d bytes, family + id rows + openings + widths = %d (%+d)", got, want, got-want)
	}
}
