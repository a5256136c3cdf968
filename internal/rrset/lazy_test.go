package rrset

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// lazyPair opens two collections over view v: one over the id-row index
// rows, made lazy as Reset makes a large one, and one eager over ref — the
// same family's index in either row form. Under LazyMinNodes nodes Reset
// must leave both eager.
func lazyPair(t testing.TB, n int, v FamilyView, rows, ref *Inverted) (lazy, eager *Collection) {
	t.Helper()
	if rows.joined {
		t.Fatal("lazy counts read id rows; the index is joined")
	}
	lazy, eager = NewCollectionFromFamily(n, v, rows), NewCollectionFromFamily(n, v, ref)
	if lazy.Kernel() != KernelSparse || lazy.lazy != nil || eager.Kernel() != KernelSparse || eager.lazy != nil {
		t.Fatalf("a warm-start collection over %d nodes and an index without a bitmap is not eager sparse", n)
	}
	lazy.startLazy()
	return lazy, eager
}

// TestResetStartsLazyByNodeCount: Reset starts a sparse collection over an
// id-row index lazy exactly when its node universe reaches LazyMinNodes,
// and a bitset one or one over a cover-join index never.
func TestResetStartsLazyByNodeCount(t *testing.T) {
	fam := FamilyFromSets([][]int32{{0, 1}, {1, 2}, {2, 3, 4}})
	for _, c := range []struct {
		n              int
		joined, bitmap bool
		lazy           bool
	}{
		{LazyMinNodes - 1, false, false, false},
		{LazyMinNodes, false, false, true},
		{LazyMinNodes, false, true, false},
		{LazyMinNodes, true, false, false},
	} {
		inv := buildInverted(c.n, fam.View(), 0, c.joined)
		if c.bitmap {
			inv.PrepareCoverBits()
		}
		col := NewCollectionFromFamily(c.n, fam.View(), inv)
		if lazy := col.lazy != nil; lazy != c.lazy {
			t.Fatalf("n = %d, joined %v, bitmap %v: lazy = %v, want %v", c.n, c.joined, c.bitmap, lazy, c.lazy)
		}
		col.CoverNode(2)
		for u, want := range []int{1, 1, 0, 0, 0} {
			if got := col.Coverage(int32(u)); got != want {
				t.Fatalf("n = %d, joined %v, bitmap %v: Coverage(%d) = %d after covering node 2, want %d", c.n, c.joined, c.bitmap, u, got, want)
			}
		}
	}
}

// sameLazyState fails the test unless the two collections agree on covered
// count, covered bits and heap array.
func sameLazyState(t *testing.T, tag string, lazy, eager *Collection) {
	t.Helper()
	if lazy.NumCovered() != eager.NumCovered() || !slices.Equal(lazy.covered, eager.covered) {
		t.Fatalf("%s: covered %d sets lazily, %d eagerly (or the bits differ)", tag, lazy.NumCovered(), eager.NumCovered())
	}
	if !slices.Equal(lazy.pq, eager.pq) {
		t.Fatalf("%s: heap arrays diverged\n lazy %v\neager %v", tag, lazy.pq, eager.pq)
	}
}

// FuzzLazyCoverage runs a lazy collection over a random family's id rows
// and an eager one in lockstep — the eager one over the family's cover
// join when joined, over the same id rows otherwise — at a random view length,
// through a random sequence of top-k queries (k ∈ {1, 2, 3}, with random
// ineligible nodes), covers, growth, credits and a forced fallback at a
// random step: every answer, count, covered count and heap array must be
// equal at every step, and after a final materialize so must the residual
// coverage vectors.
func FuzzLazyCoverage(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3), uint8(16), true)
	f.Add(uint64(99), uint8(60), uint8(200), uint8(7), uint8(150), false)
	f.Add(uint64(123456), uint8(95), uint8(255), uint8(12), uint8(255), true)
	f.Add(uint64(7), uint8(90), uint8(255), uint8(2), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg, at uint8, joined bool) {
		rng := xrand.New(seed)
		n := 4 + int(nn)%96
		have := 1 + 2*int(kk)
		a := 1 + int(avg)%12
		if a >= n {
			a = n - 1
		}
		fam := randomKernelFamily(rng, n, have, a)
		rows := buildInverted(n, fam.View(), 0, false)
		ref := rows
		if joined {
			ref = buildInverted(n, fam.View(), 0, true)
		}
		lazy, eager := lazyPair(t, n, fam.Prefix(int(at)%(have+1)), rows, ref)
		const steps = 160
		fallback := rng.IntN(2 * steps)
		var ln, en []int32
		var lc, ec []int
		for step := 0; step < steps; step++ {
			var tag string
			switch op := rng.IntN(20); {
			case op < 8:
				k := 1 + rng.IntN(3)
				out := map[int32]bool{}
				for range rng.IntN(3) {
					out[int32(rng.IntN(n))] = true
				}
				eligible := func(u int32) bool { return !out[u] }
				tag = fmt.Sprintf("step %d TopNodesInto(%d)", step, k)
				ln, lc = lazy.TopNodesInto(k, eligible, ln, lc)
				en, ec = eager.TopNodesInto(k, eligible, en, ec)
				if !slices.Equal(ln, en) || !slices.Equal(lc, ec) {
					t.Fatalf("%s: lazy %v/%v, eager %v/%v", tag, ln, lc, en, ec)
				}
			case op < 18:
				u := int32(rng.IntN(n))
				if len(ln) > 0 && op < 15 {
					u = ln[0] // the greedy's choice, most of the time
				}
				tag = fmt.Sprintf("step %d CoverNode(%d)", step, u)
				if l, e := lazy.CoverNode(u), eager.CoverNode(u); l != e {
					t.Fatalf("%s: covered %d sets lazily, %d eagerly", tag, l, e)
				}
				lazy.Drop(u)
				eager.Drop(u)
			case op == 18:
				g := randomKernelFamily(rng, n, 1+rng.IntN(40), a)
				tag = fmt.Sprintf("step %d AddFamily(%d sets)", step, g.Len())
				lazy.AddFamily(g.View())
				eager.AddFamily(g.View())
			default:
				u, from := int32(rng.IntN(n)), rng.IntN(lazy.NumSets()+1)
				tag = fmt.Sprintf("step %d CountAndCoverFrom(%d, %d)", step, u, from)
				if l, e := lazy.CountAndCoverFrom(u, from), eager.CountAndCoverFrom(u, from); l != e {
					t.Fatalf("%s: credited %d sets lazily, %d eagerly", tag, l, e)
				}
			}
			if step == fallback {
				lazy.materialize()
			}
			if u := int32(rng.IntN(n)); lazy.Coverage(u) != eager.Coverage(u) {
				t.Fatalf("%s: Coverage(%d) = %d lazily, %d eagerly", tag, u, lazy.Coverage(u), eager.Coverage(u))
			}
			sameLazyState(t, tag, lazy, eager)
		}
		for u := int32(0); int(u) < n; u++ {
			if lazy.Coverage(u) != eager.Coverage(u) {
				t.Fatalf("end: Coverage(%d) = %d lazily, %d eagerly", u, lazy.Coverage(u), eager.Coverage(u))
			}
		}
		lazy.materialize()
		if !slices.Equal(lazy.cov, eager.cov) {
			t.Fatalf("end: residual coverage after materialize\n lazy %v\neager %v", lazy.cov, eager.cov)
		}
		lazy.SyncHeap()
		eager.SyncHeap()
		sameLazyState(t, "end", lazy, eager)
	})
}

// TestLazyStaysLazyThroughCommits: a collection Reset opens lazy stays
// lazy through any number of commits and queries — only growth, credit, a
// delta capture or UseKernel turns it eager — and its counts stay the
// eager walk's. The family is a star, sets {0, i}, over the id rows
// BuildInverted writes at LazyMinNodes nodes: the hub sits at the heap's
// top and is recounted from its long row after every commit, the case
// where recounting reads the most for the least it skips.
func TestLazyStaysLazyThroughCommits(t *testing.T) {
	const spokes = 400
	sets := make([][]int32, spokes)
	for i := range sets {
		sets[i] = []int32{0, int32(1 + i)}
	}
	v := FamilyFromSets(sets).View()
	inv := BuildInverted(LazyMinNodes, v, 0)
	if inv.joined {
		t.Fatal("BuildInverted joined an index over LazyMinNodes nodes")
	}

	hub := new(Collection)
	hub.Reset(LazyMinNodes, v, inv)
	ref := NewCollectionFromFamily(LazyMinNodes, v, inv)
	ref.materialize()
	if hub.lazy == nil || ref.lazy != nil {
		t.Fatal("Reset over LazyMinNodes nodes did not start lazy, or materialize left it lazy")
	}
	hub.countGen = 250 // the one-byte stamps wrap, and are cleared, a few commits in
	for i := 1; i < spokes; i++ {
		if u, _, _ := hub.BestNode(nil); u != 0 {
			t.Fatalf("commit %d: the hub is not the best node", i)
		}
		ref.BestNode(nil)
		hub.CoverNode(int32(i))
		ref.CoverNode(int32(i))
		if hub.Coverage(0) != ref.Coverage(0) {
			t.Fatalf("after commit %d: hub coverage %d, eager %d", i, hub.Coverage(0), ref.Coverage(0))
		}
	}
	if hub.lazy == nil {
		t.Fatalf("the collection turned eager within %d commits", spokes-1)
	}
}
