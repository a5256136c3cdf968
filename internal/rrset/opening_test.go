package rrset

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"repro/internal/xrand"
)

// sameHeap compares two heap backing arrays element for element (an empty
// heap and a never-built one are the same heap).
func sameHeap[S int32 | float64](t *testing.T, tag string, got, want MaxHeap[S]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: heap holds %d entries, from-scratch %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: heap[%d] = %+v, from-scratch %+v", tag, i, got[i], want[i])
		}
	}
}

// openingLengths is the view lengths worth opening an index of `have` sets
// at: empty, one set, mid-block, all but one, all.
func openingLengths(have int) []int {
	ks := []int{0}
	for _, k := range []int{1, have / 2, have - 1, have} {
		if k > ks[len(ks)-1] {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestOpeningMatchesFromScratch: the state a Reset borrows and copies from
// an index's opening is the state the from-scratch construction computes
// (modelRun.reset), at every interesting view length of random families,
// twice each — built, then borrowed — over each form of the model's group,
// with a greedy commit between lengths.
func TestOpeningMatchesFromScratch(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := xrand.New(seed)
		n := 4 + rng.IntN(200)
		r := newModelRun(t, rng, n, 1+rng.IntN(3*StreamBlockSize/2), 1+rng.IntN(min(6, n-1)), 0)
		for _, k := range openingLengths(r.fam.Len()) {
			for range 2 {
				r.tag = fmt.Sprintf("seed %d Reset(%d)", seed, k)
				r.reset(k)
				r.check()
			}
			r.run(opTop, 0, 0, opCover, greedy, 0, opDrop, greedy, 0)
		}
		r.finish()
	}
}

// TestDeltaOnlyCollectionBuildsNoHeap: a shard-side collection — ranked by
// its coordinator, covered through CoverNodeDelta only — borrows the cut
// half of its opening and never makes the index build the heap half; if
// someone does query it later, the heap it gets is the one built from its
// live scores, as before openings existed.
func TestDeltaOnlyCollectionBuildsNoHeap(t *testing.T) {
	rng := xrand.New(7)
	const n = 300
	fam := randomKernelFamily(rng, n, 2000, 4)
	v := fam.Prefix(1500)
	inv := BuildInverted(n, fam.View(), 0)
	col := NewCollectionFromFamily(n, v, inv)
	ref := NewCollection(n)
	ref.AddFamily(v)
	opened := inv.MemBytes() // index + the opening's cut vector
	var nodes, decs []int32
	for i := 0; i < 20; i++ {
		u := int32(rng.IntN(n))
		col.CoverNodeDelta(u, nodes[:0], decs[:0])
		ref.CoverNodeDelta(u, nodes[:0], decs[:0])
	}
	col.SyncHeap()
	ref.SyncHeap()
	sameHeap(t, "after delta covers", col.pq, ref.pq)
	if got := inv.MemBytes(); got != opened {
		t.Fatalf("a delta-only collection grew its index from %d to %d bytes: the opening's heap was built", opened, got)
	}
	NewCollectionFromFamily(n, v, inv).SyncHeap()
	if got, want := inv.MemBytes(), opened+8*int64(len(inv.openings[0].candidateHeap())); got != want || got == opened {
		t.Fatalf("after a selecting collection synced: index holds %d bytes, want %d (cut + heap)", got, want)
	}
}

// TestOpeningsBounded is OpeningCap's justification: however many view
// lengths an index is opened at, it stores at most OpeningCap openings of
// at most 12 bytes per node each, the most recently used ones, and a
// length evicted long ago is simply built again.
func TestOpeningsBounded(t *testing.T) {
	rng := xrand.New(11)
	const n = 500
	fam := randomKernelFamily(rng, n, 4000, 3)
	inv := BuildInverted(n, fam.View(), 0)
	base := inv.MemBytes()
	open := func(k int) bool {
		c := NewCollectionFromFamily(n, fam.Prefix(k), inv)
		c.SyncHeap()
		return c.OpeningBuilt()
	}
	for i := 0; i < 3*OpeningCap; i++ {
		k := 1000 + 100*i
		if !open(k) {
			t.Fatalf("length %d opened for the first time without a build", k)
		}
		if open(1000) {
			t.Fatalf("length 1000, reopened after every other length, was rebuilt at i=%d", i)
		}
		if got, limit := inv.MemBytes(), base+int64(OpeningCap)*12*n; got > limit {
			t.Fatalf("after %d lengths the index holds %d bytes, limit %d", i+1, got, limit)
		}
		if len(inv.openings) > OpeningCap {
			t.Fatalf("%d openings stored, cap %d", len(inv.openings), OpeningCap)
		}
	}
	if !open(1100) {
		t.Fatal("a length evicted long ago was served without a build")
	}
}

// TestReleasedWorkspacePinsNoOpening: a workspace parked in a pool keeps
// its own arrays but nothing of the index it last ran over — neither the
// inverted index nor the cut vector it borrowed from an opening.
func TestReleasedWorkspacePinsNoOpening(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := xrand.New(5)
	const n = 200
	fam := randomKernelFamily(rng, n, 800, 3)
	ws := NewWorkspace()
	open := func() (weak.Pointer[Inverted], weak.Pointer[int32]) {
		inv := BuildInverted(n, fam.View(), 0)
		ws.Collection(n, fam.Prefix(500), inv).CoverNode(3)
		ws.Weighted(n, fam.Prefix(500), inv).Commit(4, 0.5)
		return weak.Make(inv), weak.Make(&inv.openings[0].cut[0])
	}
	inv, cut := open()
	ws.Release()
	runtime.GC()
	if inv.Value() != nil || cut.Value() != nil {
		t.Fatalf("a released workspace pins its last index (inverted %v, borrowed cut %v)", inv.Value() != nil, cut.Value() != nil)
	}
	runtime.KeepAlive(ws)
}
