package rrset

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// randomKernelFamily draws k random sets over n nodes with roughly avg
// members each (distinct members, ascending within a set is not required
// by any kernel and deliberately not enforced here).
func randomKernelFamily(rng *xrand.Rand, n, k, avg int) *SetFamily {
	f := NewSetFamily()
	seen := make([]int, n)
	gen := 0
	var set []int32
	for i := 0; i < k; i++ {
		gen++
		sz := 1 + rng.IntN(2*avg-1)
		if sz > n {
			sz = n
		}
		set = set[:0]
		for len(set) < sz {
			u := rng.IntN(n)
			if seen[u] == gen {
				continue
			}
			seen[u] = gen
			set = append(set, int32(u))
		}
		f.Append(set)
	}
	return f
}

// deltaOf returns a cover's sparse decrement vector as a node → decrement
// map. The vector's order is unspecified (the coordinator applies it with
// integer subtractions), its content is not: a node listed twice, or runs of
// unequal length, fail the test.
func deltaOf(t testing.TB, nodes, decs []int32) map[int32]int32 {
	t.Helper()
	if len(nodes) != len(decs) {
		t.Fatalf("delta vector with %d nodes and %d decrements", len(nodes), len(decs))
	}
	m := make(map[int32]int32, len(nodes))
	for i, u := range nodes {
		if _, dup := m[u]; dup {
			t.Fatalf("node %d listed twice in the delta vector %v", u, nodes)
		}
		m[u] = decs[i]
	}
	return m
}

// kernelPair builds a sparse- and a bitset-kernel collection over the first
// k sets of the same prepared family, failing the test if the bitset kernel
// does not activate. Below the family's length, the bitmap's rows hold sets
// past the view, which the sweep must never cover.
func kernelPair(t testing.TB, n int, f *SetFamily, k int) (sp, bt *Collection) {
	t.Helper()
	inv := BuildInverted(n, f.View(), 0)
	inv.PrepareCover()
	inv.PrepareCoverBits()
	v := f.Prefix(k)
	sp = NewCollectionFromFamily(n, v, inv)
	bt = NewCollectionFromFamily(n, v, inv)
	if got := bt.Kernel(); got != KernelBitset {
		t.Fatalf("kernel over a bitmap-prepared index = %v, want bitset", got)
	}
	if got := sp.UseKernel(KernelSparse); got != KernelSparse || sp.Kernel() != KernelSparse {
		t.Fatalf("UseKernel(sparse) = %v, Kernel() = %v, want sparse", got, sp.Kernel())
	}
	return sp, bt
}

// compareCollections verifies the two collections expose identical
// observable coverage state.
func compareCollections(t *testing.T, sp, bt *Collection, tag string) {
	t.Helper()
	if sp.NumCovered() != bt.NumCovered() {
		t.Fatalf("%s: NumCovered sparse=%d bitset=%d", tag, sp.NumCovered(), bt.NumCovered())
	}
	for u := 0; u < sp.N(); u++ {
		if sp.Coverage(int32(u)) != bt.Coverage(int32(u)) {
			t.Fatalf("%s: Coverage(%d) sparse=%d bitset=%d", tag, u, sp.Coverage(int32(u)), bt.Coverage(int32(u)))
		}
	}
	sn, sc := sp.TopNodes(8, nil)
	bn, bc := bt.TopNodes(8, nil)
	if len(sn) != len(bn) {
		t.Fatalf("%s: TopNodes len sparse=%d bitset=%d", tag, len(sn), len(bn))
	}
	for i := range sn {
		if sn[i] != bn[i] || sc[i] != bc[i] {
			t.Fatalf("%s: TopNodes[%d] sparse=(%d,%d) bitset=(%d,%d)", tag, i, sn[i], sc[i], bn[i], bc[i])
		}
	}
}

// TestKernelEquivalenceCover drives identical greedy cover sequences
// through the sparse and bitset kernels — over an odd-length prefix of the
// indexed family, including credit passes and post-activation growth
// segments — and requires byte-identical coverage state and candidate
// ordering throughout.
func TestKernelEquivalenceCover(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		rng := xrand.New(seed)
		n := 48 + rng.IntN(80)
		k := 100 + rng.IntN(400)
		f := randomKernelFamily(rng, n, k, 6)
		sp, bt := kernelPair(t, n, f, k-k/5|1)
		compareCollections(t, sp, bt, "init")

		for it := 0; it < 6; it++ {
			u, cov, ok := sp.BestNode(nil)
			bu, bcov, bok := bt.BestNode(nil)
			if u != bu || cov != bcov || ok != bok {
				t.Fatalf("BestNode sparse=(%d,%d,%v) bitset=(%d,%d,%v)", u, cov, ok, bu, bcov, bok)
			}
			if !ok {
				break
			}
			if got, want := bt.CoverNode(u), sp.CoverNode(u); got != want {
				t.Fatalf("CoverNode(%d) sparse=%d bitset=%d", u, want, got)
			}
			sp.Drop(u)
			bt.Drop(u)
			compareCollections(t, sp, bt, "cover")
		}

		// Credit pass over a mid-stream boundary.
		boundary := k / 3
		for u := 0; u < n; u += 7 {
			if got, want := bt.CountAndCoverFrom(int32(u), boundary), sp.CountAndCoverFrom(int32(u), boundary); got != want {
				t.Fatalf("CountAndCoverFrom(%d,%d) sparse=%d bitset=%d", u, boundary, want, got)
			}
		}
		compareCollections(t, sp, bt, "credit")

		// Growth after activation: the new segment takes the sparse walk
		// in both collections.
		g := randomKernelFamily(rng, n, 40, 5)
		sp.AddFamily(g.View())
		bt.AddFamily(g.View())
		u, _, ok := sp.BestNode(nil)
		bu, _, bok := bt.BestNode(nil)
		if u != bu || ok != bok {
			t.Fatalf("post-growth BestNode sparse=(%d,%v) bitset=(%d,%v)", u, ok, bu, bok)
		}
		if ok {
			if got, want := bt.CoverNode(u), sp.CoverNode(u); got != want {
				t.Fatalf("post-growth CoverNode(%d) sparse=%d bitset=%d", u, want, got)
			}
		}
		compareCollections(t, sp, bt, "growth")
	}
}

// onSparse fails the test unless the bitset twin bt has turned to the
// sparse walk and agrees with its sparse twin sp on every count.
func onSparse(t *testing.T, tag string, sp, bt *Collection) {
	t.Helper()
	if got := bt.Kernel(); got != KernelSparse {
		t.Fatalf("%s: the bitset twin reports %v, want sparse", tag, got)
	}
	compareCollections(t, sp, bt, tag)
}

// TestKernelEquivalenceDelta checks the sharded delta-capture path: both
// kernels must emit the same covered counts and the same sparse decrement
// vectors, as node → decrement maps. A second pair takes every step through
// CountAndCoverFrom — the same walk with a nil sink — at firstID 0 and
// mid-stream, and must end in the same cov / covered / NumCovered. The
// bitset sweep serves CoverNode only, so each bitset twin reports the
// sparse kernel after its first delta, credit or growth, with the sparse
// twin's counts.
func TestKernelEquivalenceDelta(t *testing.T) {
	rng := xrand.New(11)
	n := 64
	k := 300
	f := randomKernelFamily(rng, n, k, 6)
	sp, bt := kernelPair(t, n, f, k)
	nsp, nbt := kernelPair(t, n, f, k)
	nilSink := func(u int32, firstID, want int) {
		t.Helper()
		if s, b := nsp.CountAndCoverFrom(u, firstID), nbt.CountAndCoverFrom(u, firstID); s != want || b != want {
			t.Fatalf("CountAndCoverFrom(%d, %d): sparse %d, bitset %d, delta walk %d", u, firstID, s, b, want)
		}
	}

	var sn, sd, bn, bd []int32
	for it := 0; it < 5; it++ {
		u, cov, ok := sp.BestNode(nil)
		bu, bcov, bok := bt.BestNode(nil)
		if u != bu || cov != bcov || ok != bok {
			t.Fatalf("BestNode sparse=(%d,%d,%v) bitset=(%d,%d,%v)", u, cov, ok, bu, bcov, bok)
		}
		if !ok {
			break
		}
		var sc, bc int
		sc, sn, sd = sp.CoverNodeDelta(u, sn, sd)
		bc, bn, bd = bt.CoverNodeDelta(u, bn, bd)
		if sm, bm := deltaOf(t, sn, sd), deltaOf(t, bn, bd); sc != bc || !maps.Equal(sm, bm) {
			t.Fatalf("CoverNodeDelta(%d): sparse=(%d, %v) bitset=(%d, %v)", u, sc, sm, bc, bm)
		}
		nilSink(u, 0, sc)
		if it == 0 {
			onSparse(t, "after the first delta", sp, bt)
			onSparse(t, "after the first credit", nsp, nbt)
		}
		for _, c := range []*Collection{sp, bt, nsp, nbt} {
			c.Drop(u)
		}
	}

	boundary := k / 2
	for u := 0; u < n; u += 5 {
		var sc, bc int
		sc, sn, sd = sp.CountAndCoverFromDelta(int32(u), boundary, sn, sd)
		bc, bn, bd = bt.CountAndCoverFromDelta(int32(u), boundary, bn, bd)
		if sm, bm := deltaOf(t, sn, sd), deltaOf(t, bn, bd); sc != bc || !maps.Equal(sm, bm) {
			t.Fatalf("CountAndCoverFromDelta(%d): sparse=(%d, %v) bitset=(%d, %v)", u, sc, sm, bc, bm)
		}
		nilSink(int32(u), boundary, sc)
	}
	for name, c := range map[string]*Collection{"bitset": bt, "nil-sink sparse": nsp, "nil-sink bitset": nbt} {
		if !reflect.DeepEqual(c.cov, sp.cov) || !reflect.DeepEqual(c.covered, sp.covered) || c.NumCovered() != sp.NumCovered() {
			t.Fatalf("%s: cov / covered / NumCovered differ from the sparse delta walk's", name)
		}
	}
	compareCollections(t, sp, bt, "delta")

	gsp, gbt := kernelPair(t, n, f, k)
	g := randomKernelFamily(rng, n, 40, 5)
	gsp.AddFamily(g.View())
	gbt.AddFamily(g.View())
	onSparse(t, "after growth", gsp, gbt)
}

// TestKernelDensityHeuristic checks that PrepareCover builds the bitmap
// exactly when 64·memberships ≥ n·k, that a fresh collection runs bitset
// exactly when the bitmap is there, and that UseKernel refuses bitset when
// the bitmap is absent or the collection shape disqualifies it.
func TestKernelDensityHeuristic(t *testing.T) {
	rng := xrand.New(5)

	// Dense: 64 sets of ~16 members over 32 nodes → memberships·64 ≫ n·k.
	dense := randomKernelFamily(rng, 32, 64, 16)
	dv := dense.View()
	dinv := BuildInverted(32, dv, 0)
	dinv.PrepareCover()
	if dinv.bits.Load() == nil {
		t.Fatal("dense sample: PrepareCover did not build the bitmap")
	}

	// Sparse: 4096 sets of ~2 members over 2048 nodes → far below the gate.
	sparse := randomKernelFamily(rng, 2048, 4096, 2)
	sv := sparse.View()
	sinv := BuildInverted(2048, sv, 0)
	sinv.PrepareCover()
	if sinv.bits.Load() != nil {
		t.Fatal("sparse sample: PrepareCover built the bitmap against the density gate")
	}
	c := NewCollectionFromFamily(2048, sv, sinv)
	if got := c.Kernel(); got != KernelSparse {
		t.Fatalf("kernel without bitmap = %v, want sparse", got)
	}
	if got := c.UseKernel(KernelBitset); got != KernelSparse {
		t.Fatalf("UseKernel without bitmap = %v, want sparse fallback", got)
	}

	// Counter collections hold no segments and must stay sparse.
	cc := NewCounterCollection(16)
	if got := cc.UseKernel(KernelBitset); got != KernelSparse {
		t.Fatalf("counter UseKernel = %v, want sparse", got)
	}

	// The dense sample's collection starts on bitset.
	mid := NewCollectionFromFamily(32, dv, dinv)
	if got := mid.Kernel(); got != KernelBitset {
		t.Fatalf("kernel over the dense sample = %v, want bitset", got)
	}

	// Mid-run switches to bitset are refused: coverage already happened.
	mid.UseKernel(KernelSparse)
	u, _, _ := mid.BestNode(nil)
	mid.CoverNode(u)
	if got := mid.UseKernel(KernelBitset); got != KernelSparse {
		t.Fatalf("mid-run UseKernel = %v, want sparse", got)
	}
}

// TestMemBytesIgnoresPooledKernelMasks pins that a reported footprint does
// not depend on pool history: a sparse collection recycled from a
// workspace that last ran the bitset sweep must report what a fresh one
// does, and so must a recycled soft collection.
func TestMemBytesIgnoresPooledKernelMasks(t *testing.T) {
	rng := xrand.New(3)
	dense := randomKernelFamily(rng, 32, 200, 12)
	dinv := BuildInverted(32, dense.View(), 0)
	dinv.PrepareCover()
	sparse := randomKernelFamily(rng, 2048, 4096, 2)
	sv := sparse.View()
	sinv := BuildInverted(2048, sv, 0)
	sinv.PrepareCover()

	ws := NewWorkspace()
	if k := ws.Collection(32, dense.View(), dinv).UseKernel(KernelBitset); k != KernelBitset {
		t.Fatalf("dense hard run on %v, want bitset", k)
	}
	ws.Weighted(32, dense.View(), dinv)
	ws.Release()

	hard := ws.Collection(2048, sv, sinv)
	if got, want := hard.MemBytes(), NewCollectionFromFamily(2048, sv, sinv).MemBytes(); hard.Kernel() != KernelSparse || got != want {
		t.Errorf("recycled hard collection (%v): MemBytes %d, fresh %d", hard.Kernel(), got, want)
	}
	soft := ws.Weighted(2048, sv, sinv)
	if got, want := soft.MemBytes(), NewWeightedCollectionFromFamily(2048, sv, sinv).MemBytes(); got != want {
		t.Errorf("recycled soft collection: MemBytes %d, fresh %d", got, want)
	}
}

// FuzzKernelEquivalence fuzzes random families and cover sequences through
// both kernels — hard coverage and counter-mode deltas — requiring
// identical coverage counts, heap orders, and sparse decrement vectors (as
// node → decrement maps).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg uint8) {
		n := 4 + int(nn)%96
		k := 8 + int(kk)
		a := 1 + int(avg)%10
		if a >= n {
			a = n - 1
		}
		rng := xrand.New(seed)
		fam := randomKernelFamily(rng, n, k, a)
		v := fam.View()
		inv := BuildInverted(n, v, 0)
		inv.PrepareCover()
		inv.PrepareCoverBits()

		sp := NewCollectionFromFamily(n, v, inv)
		bt := NewCollectionFromFamily(n, v, inv)
		if bt.UseKernel(KernelBitset) != KernelBitset {
			t.Skip("bitset kernel unavailable")
		}
		sp.UseKernel(KernelSparse)
		var sn, sd, bn, bd []int32
		for it := 0; it < 8; it++ {
			u := int32(rng.IntN(n))
			switch it % 3 {
			case 0:
				if got, want := bt.CoverNode(u), sp.CoverNode(u); got != want {
					t.Fatalf("CoverNode(%d) sparse=%d bitset=%d", u, want, got)
				}
			case 1:
				boundary := rng.IntN(k + 4)
				if got, want := bt.CountAndCoverFrom(u, boundary), sp.CountAndCoverFrom(u, boundary); got != want {
					t.Fatalf("CountAndCoverFrom(%d,%d) sparse=%d bitset=%d", u, boundary, want, got)
				}
			case 2:
				boundary := rng.IntN(k + 4)
				var sc, bc int
				sc, sn, sd = sp.CountAndCoverFromDelta(u, boundary, sn, sd)
				bc, bn, bd = bt.CountAndCoverFromDelta(u, boundary, bn, bd)
				if sm, bm := deltaOf(t, sn, sd), deltaOf(t, bn, bd); sc != bc || !maps.Equal(sm, bm) {
					t.Fatalf("delta(%d,%d): sparse=(%d, %v) bitset=(%d, %v)", u, boundary, sc, sm, bc, bm)
				}
			}
		}
		for u := 0; u < n; u++ {
			if sp.Coverage(int32(u)) != bt.Coverage(int32(u)) {
				t.Fatalf("Coverage(%d) sparse=%d bitset=%d", u, sp.Coverage(int32(u)), bt.Coverage(int32(u)))
			}
		}
		if sp.NumCovered() != bt.NumCovered() {
			t.Fatal("aggregate coverage mismatch")
		}
		sN, sC := sp.TopNodes(5, nil)
		bN, bC := bt.TopNodes(5, nil)
		if len(sN) != len(bN) {
			t.Fatal("TopNodes length mismatch")
		}
		for i := range sN {
			if sN[i] != bN[i] || sC[i] != bC[i] {
				t.Fatal("TopNodes order mismatch")
			}
		}
	})
}

// FuzzDeltaCapture checks every captured delta vector against the coverage
// change it stands for, on each kind of segment a shard walks: a joined
// index (the cover-join record stream), id-row growth segments (AddFamily),
// and a collection opened on the bitset sweep (PrepareCoverBits), which its
// first capture hands to the sparse walk, each later grown by one more
// id-row segment. Every CoverNodeDelta / CountAndCoverFromDelta vector must
// name each node once, give each node exactly its Coverage drop across the
// call (and name no node whose coverage did not drop), and sum to the total
// membership of the sets the call covered. The kernel-equivalence tests
// compare captures with each other; this one compares each with the state
// it describes, so a capture bug all walks share cannot pass.
func FuzzDeltaCapture(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg uint8) {
		n := 4 + int(nn)%96
		k := 8 + int(kk)
		a := 1 + int(avg)%10
		if a >= n {
			a = n - 1
		}
		rng := xrand.New(seed)
		fam := randomKernelFamily(rng, n, k, a)
		v := fam.View()

		joined := NewCollectionFromFamily(n, v, BuildInverted(n, v, 0))
		if joined.UseKernel(KernelSparse) != KernelSparse || !joined.segs[0].inv.joined {
			t.Fatal("no sparse walk over a joined index")
		}
		grown := NewCollection(n)
		grown.AddFamily(fam.Window(0, k/2))
		grown.AddFamily(fam.Window(k/2, k))
		binv := BuildInverted(n, v, 0)
		binv.PrepareCoverBits()
		bitset := NewCollectionFromFamily(n, v, binv)
		if bitset.UseKernel(KernelBitset) != KernelBitset {
			t.Fatal("bitset kernel unavailable over a bitmap-prepared index")
		}
		cols := []struct {
			name string
			c    *Collection
		}{{"joined", joined}, {"growth", grown}, {"bitset", bitset}}

		var nodes, decs []int32
		before := make([]int32, n)
		for step := 0; step < 12; step++ {
			if step == 6 {
				g := randomKernelFamily(rng, n, 1+rng.IntN(80), a)
				for _, col := range cols {
					col.c.AddFamily(g.View())
				}
			}
			u := int32(rng.IntN(n))
			firstID := -1
			if step%2 == 1 {
				firstID = rng.IntN(joined.NumSets() + 4)
			}
			for _, col := range cols {
				c := col.c
				for w := range before {
					before[w] = int32(c.Coverage(int32(w)))
				}
				was := slices.Clone(c.covered)
				var covered int
				op := fmt.Sprintf("%s: CoverNodeDelta(%d)", col.name, u)
				if firstID < 0 {
					covered, nodes, decs = c.CoverNodeDelta(u, nodes, decs)
				} else {
					op = fmt.Sprintf("%s: CountAndCoverFromDelta(%d, %d)", col.name, u, firstID)
					covered, nodes, decs = c.CountAndCoverFromDelta(u, firstID, nodes, decs)
				}
				delta := deltaOf(t, nodes, decs)
				var sum int
				for w := range before {
					drop := before[w] - int32(c.Coverage(int32(w)))
					d, listed := delta[int32(w)]
					if d != drop || listed != (drop != 0) {
						t.Fatalf("step %d %s: node %d lost %d coverage, the vector says %d (listed %v)", step, op, w, drop, d, listed)
					}
					sum += int(d)
				}
				newly, membership := 0, 0
				for id := 0; id < c.NumSets(); id++ {
					if c.isCovered(id) && was[id>>6]>>(uint(id)&63)&1 == 0 {
						newly++
						membership += len(setOf(c, id))
					}
				}
				if newly != covered || sum != membership {
					t.Fatalf("step %d %s: covered %d sets, %d newly marked; decrements sum to %d, their membership is %d", step, op, covered, newly, sum, membership)
				}
			}
		}
	})
}

// setOf returns the members of the set with global id in c.
func setOf(c *Collection, id int) []int32 {
	for i := range c.segs {
		if id < c.segs[i].end() {
			return c.segs[i].set(int32(id))
		}
	}
	panic(fmt.Sprintf("set %d past the collection's %d sets", id, c.NumSets()))
}

// BenchmarkKernels compares the cover kernels on a greedy commit loop
// across instance densities. The dense configuration is the one the
// bitset kernel is accountable for (≥1.5× over sparse); the sparse
// configuration documents the regime the density heuristic keeps on the
// sparse kernel (the bitmap would not pay for itself).
func BenchmarkKernels(b *testing.B) {
	type cfg struct {
		name    string
		n, k, a int
	}
	configs := []cfg{
		// Dense: avg row length k·a/n ≈ 937 vs k/64 = 192 words/row.
		{name: "dense", n: 512, k: 12288, a: 39},
		// Sparse: avg row length ≈ 18 — far below k/64 = 128.
		{name: "sparse", n: 4096, k: 8192, a: 9},
	}
	for _, cf := range configs {
		rng := xrand.New(1)
		fam := randomKernelFamily(rng, cf.n, cf.k, cf.a)
		v := fam.View()
		inv := BuildInverted(cf.n, v, 0)
		inv.PrepareCover()
		inv.PrepareCoverBits()
		ws := NewWorkspace()
		for kid := 0; kid < NumKernels; kid++ {
			id := KernelID(kid)
			b.Run(cf.name+"/"+id.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := ws.Collection(cf.n, v, inv)
					c.UseKernel(id)
					// Cover every node: the first few commits retire
					// nearly all sets, the rest are scan-dominated — the
					// regime the greedy loop spends its iterations in
					// once seeds accumulate, where kernels differ most.
					for u := 0; u < cf.n; u++ {
						c.CoverNode(int32(u))
					}
				}
			})
		}
	}
}
