package rrset

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

func TestSetFamilyBasics(t *testing.T) {
	f := NewSetFamily()
	if f.Len() != 0 || f.NumMembers() != 0 {
		t.Fatalf("empty family: %d sets, %d members", f.Len(), f.NumMembers())
	}
	f.Append([]int32{3, 1})
	f.Append(nil)
	f.Append([]int32{2})
	if f.Len() != 3 || f.NumMembers() != 3 {
		t.Fatalf("family: %d sets, %d members", f.Len(), f.NumMembers())
	}
	if got := f.Set(0); !reflect.DeepEqual(got, []int32{3, 1}) {
		t.Fatalf("Set(0) = %v", got)
	}
	if got := f.Set(1); len(got) != 0 {
		t.Fatalf("Set(1) = %v, want empty", got)
	}
	if got := f.Set(2); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("Set(2) = %v", got)
	}
	sets := f.Sets()
	if sets[1] != nil {
		t.Fatal("empty set materialized non-nil")
	}
	if f.MemBytes() != 3*4+4*8 {
		t.Fatalf("MemBytes = %d", f.MemBytes())
	}
}

func TestFamilyFromSetsRoundTrip(t *testing.T) {
	in := [][]int32{{5, 0}, nil, {1}, {2, 3, 4}}
	f := FamilyFromSets(in)
	out := f.Sets()
	if len(out) != len(in) {
		t.Fatalf("Len %d", len(out))
	}
	for i := range in {
		if len(in[i]) == 0 && out[i] == nil {
			continue
		}
		if !reflect.DeepEqual(in[i], out[i]) {
			t.Fatalf("set %d: %v vs %v", i, in[i], out[i])
		}
	}
}

func TestFamilyAppendFamilyAndWindows(t *testing.T) {
	a := FamilyFromSets([][]int32{{0, 1}, {2}})
	b := FamilyFromSets([][]int32{{3}, {4, 5}})
	a.AppendFamily(b)
	if a.Len() != 4 || a.NumMembers() != 6 {
		t.Fatalf("merged: %d sets, %d members", a.Len(), a.NumMembers())
	}
	w := a.Window(1, 3)
	if w.Len() != 2 || w.NumMembers() != 2 {
		t.Fatalf("window: %d sets, %d members", w.Len(), w.NumMembers())
	}
	if !reflect.DeepEqual(w.Set(0), []int32{2}) || !reflect.DeepEqual(w.Set(1), []int32{3}) {
		t.Fatalf("window sets %v %v", w.Set(0), w.Set(1))
	}
}

// TestFamilyViewsSurviveGrowth is the stability contract concurrent
// allocations rely on: a view taken before appends keeps reading the same
// bytes afterwards.
func TestFamilyViewsSurviveGrowth(t *testing.T) {
	f := FamilyFromSets([][]int32{{0, 1}, {2}})
	v := f.View()
	want := v.Sets()
	for i := 0; i < 10000; i++ {
		f.Append([]int32{int32(i % 7)})
	}
	if !reflect.DeepEqual(v.Sets(), want) {
		t.Fatal("view changed under growth")
	}
	if v.Len() != 2 {
		t.Fatalf("view grew to %d sets", v.Len())
	}
}

func TestBuildInverted(t *testing.T) {
	f := FamilyFromSets([][]int32{{0, 2}, {2}, nil, {1, 2}})
	inv := BuildInverted(4, f.View(), 0)
	wantRows := [][]int32{{0}, {3}, {0, 1, 3}, nil}
	for u := int32(0); u < 4; u++ {
		got := inv.IDs(u)
		if len(got) == 0 && len(wantRows[u]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, wantRows[u]) {
			t.Fatalf("IDs(%d) = %v, want %v", u, got, wantRows[u])
		}
		if inv.Count(u) != len(wantRows[u]) {
			t.Fatalf("Count(%d) = %d", u, inv.Count(u))
		}
	}
	// base offset shifts every id.
	inv = BuildInverted(4, f.View(), 100)
	if got := inv.IDs(2); !reflect.DeepEqual(got, []int32{100, 101, 103}) {
		t.Fatalf("based IDs(2) = %v", got)
	}
}

// TestSampleRangeRRIntoWorkerInvariance: the sampler draws the exact same
// stream for any worker cap and any split into grow calls.
func TestSampleRangeRRIntoWorkerInvariance(t *testing.T) {
	s := streamTestSampler(t)
	want := sampleRange(s, 0, 4*StreamBlockSize, 7)
	for _, cap := range []int{0, 1, 3} {
		SetMaxWorkers(cap)
		fam := NewSetFamily()
		s.SampleRangeRRInto(0, 2*StreamBlockSize, xrand.New(7), fam)
		s.SampleRangeRRInto(2*StreamBlockSize, 4*StreamBlockSize, xrand.New(7), fam)
		if got := fam.Sets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream diverged at worker cap %d", cap)
		}
	}
	SetMaxWorkers(0)
}

// TestSampleBatchRRFamilyMatchesSlices: the arena-shaped batch sampler
// draws the exact sets SampleBatchRR draws (same chunking, same rng use).
func TestSampleBatchRRFamilyMatchesSlices(t *testing.T) {
	s := streamTestSampler(t)
	for _, count := range []int{0, 1, 7, 1000} {
		want := s.SampleBatchRR(count, xrand.New(9), 42)
		fam := s.SampleBatchRRFamily(count, xrand.New(9), 42)
		if fam.Len() != count {
			t.Fatalf("count %d: family has %d sets", count, fam.Len())
		}
		if count > 0 && !reflect.DeepEqual(fam.Sets(), want) {
			t.Fatalf("count %d: family batch diverged from slice batch", count)
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(2)
	if MaxWorkers() != 2 || samplingWorkers(8) != 2 || samplingWorkers(1) != 1 {
		t.Fatalf("cap 2: MaxWorkers=%d workers(8)=%d workers(1)=%d", MaxWorkers(), samplingWorkers(8), samplingWorkers(1))
	}
	SetMaxWorkers(-5)
	if MaxWorkers() != 0 {
		t.Fatalf("negative cap not normalized: %d", MaxWorkers())
	}
	if samplingWorkers(1) != 1 {
		t.Fatal("workers(1) != 1 at default cap")
	}
}
