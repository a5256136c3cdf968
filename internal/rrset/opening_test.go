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

// checkOpening compares warm-start collections over the first k sets of
// fam, opened through inv's stored opening (built on the first Reset,
// borrowed and copied on the second), with hand-grown ones that never see
// an opening: NewCollection + AddFamily counts memberships with
// Inverted.Count over an index of the prefix alone and builds its heap in
// candidates.sync. Residual coverage — read through Coverage, which a
// sparse collection over an id-row index, made lazy, answers from the cut,
// and again from the counters after materialize — the borrowed cut vector
// and, after SyncHeap,
// the heap array must agree element for element, for both collection
// kinds.
func checkOpening(t *testing.T, n int, fam *SetFamily, inv *Inverted, k int) {
	t.Helper()
	v := fam.Prefix(k)
	ref := NewCollection(n)
	ref.AddFamily(v)
	ref.SyncHeap()
	wref := NewWeightedCollection(n)
	wref.AddFamily(v)
	wref.SyncHeap()

	for pass, wantBuilt := range []bool{true, false} {
		tag := fmt.Sprintf("k=%d pass %d", k, pass)
		hard := NewCollectionFromFamily(n, v, inv)
		if hard.OpeningBuilt() != wantBuilt {
			t.Fatalf("%s: OpeningBuilt = %v", tag, hard.OpeningBuilt())
		}
		if hard.Kernel() == KernelSparse && !inv.joined {
			hard.startLazy()
		}
		for u := 0; u < n; u++ {
			if got := hard.Coverage(int32(u)); got != ref.Coverage(int32(u)) || hard.segs[0].cut[u] != ref.cov[u] {
				t.Fatalf("%s: node %d cov %d cut %d, from-scratch %d", tag, u, got, hard.segs[0].cut[u], ref.cov[u])
			}
		}
		hard.SyncHeap()
		sameHeap(t, tag+" hard", hard.pq, ref.pq)
		hard.materialize()
		for u := 0; u < n; u++ {
			if hard.cov[u] != ref.cov[u] {
				t.Fatalf("%s: node %d counter %d after materialize, from-scratch %d", tag, u, hard.cov[u], ref.cov[u])
			}
		}

		soft := NewWeightedCollectionFromFamily(n, v, inv)
		if soft.OpeningBuilt() {
			t.Fatalf("%s: the soft collection rebuilt the opening the hard one left", tag)
		}
		for u := 0; u < n; u++ {
			if soft.wcov[u] != wref.wcov[u] {
				t.Fatalf("%s: node %d wcov %v, from-scratch %v", tag, u, soft.wcov[u], wref.wcov[u])
			}
		}
		soft.SyncHeap()
		sameHeap(t, tag+" soft", soft.pq, wref.pq)
	}

	// A node dropped before the first sync must be left out of the rebuild,
	// exactly as a from-scratch build leaves it out.
	if n > 0 {
		u := int32(k % n)
		hard, dropped := NewCollectionFromFamily(n, v, inv), NewCollection(n)
		dropped.AddFamily(v)
		hard.Drop(u)
		dropped.Drop(u)
		hard.SyncHeap()
		dropped.SyncHeap()
		sameHeap(t, fmt.Sprintf("k=%d drop-before-sync", k), hard.pq, dropped.pq)
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

// openingIndex indexes fam at base 0 joined for even seeds and with id rows
// — the form of an index over LazyMinNodes nodes or more, or whose ids
// reach 2^27 — for odd ones.
func openingIndex(n int, fam *SetFamily, seed uint64) *Inverted {
	if seed%2 == 0 {
		return BuildInverted(n, fam.View(), 0)
	}
	return buildInverted(n, fam.View(), 0, false)
}

// TestOpeningMatchesFromScratch: the state a Reset borrows and copies from
// the inverted index's opening is the state the from-scratch construction
// computes, over random families and every interesting view length, over
// a joined index (with its bitmap when the density rule builds one) and
// over id rows, made lazy where sparse.
func TestOpeningMatchesFromScratch(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := xrand.New(seed)
		n := 4 + rng.IntN(200)
		have := 1 + rng.IntN(3*StreamBlockSize/2)
		fam := randomKernelFamily(rng, n, have, 1+rng.IntN(min(6, n-1)))
		for _, k := range openingLengths(have) {
			// A fresh index per length: the cap would otherwise evict the
			// first lengths before their second pass.
			checkOpening(t, n, fam, openingIndex(n, fam, seed), k)
		}
	}
}

// FuzzOpeningMatchesFromScratch runs the same comparison on fuzzed shapes
// and view lengths.
func FuzzOpeningMatchesFromScratch(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3), uint8(5))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7), uint8(200))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg, at uint8) {
		n := 4 + int(nn)%96
		have := 1 + int(kk)
		a := 1 + int(avg)%10
		if a >= n {
			a = n - 1
		}
		fam := randomKernelFamily(xrand.New(seed), n, have, a)
		checkOpening(t, n, fam, openingIndex(n, fam, seed), int(at)%(have+1))
	})
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
