package rrset

import "testing"

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
