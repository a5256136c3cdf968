package rrset

import (
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

// TestKernelEquivalenceCover drives a greedy cover sequence — six
// commits, a credit pass from a third of the sets on, growth and one more
// commit — through the model's group (model_test.go) over an odd-length
// prefix of the indexed family, so the bitset sweep's words hold sets past
// the view it must never cover.
func TestKernelEquivalenceCover(t *testing.T) {
	var ops []byte
	for range 6 {
		ops = append(ops, opTop, 0, 0, opCover, greedy, 0, opDrop, greedy, 0)
	}
	for u := byte(0); u < 64; u += 7 {
		ops = append(ops, opCredit, u, 85)
	}
	ops = append(ops, opGrow, 39, 0, opTop, 0, 0, opCover, greedy, 0)
	for _, seed := range []uint64{1, 7, 42} {
		runModel(t, seed, 60, 200, 5, 51, 0, ops) // 64 nodes, 167 of 208 sets
	}
}

// TestKernelEquivalenceDelta checks the sharded delta-capture path through
// the model's group: five greedy CoverNodeDelta commits, then
// CountAndCoverFromDelta from the middle set on beside the nil-sink walk
// (CountAndCoverFrom) over every fifth node, then growth. Each capture must
// be the model's node → decrement map, and the bitset and lazy members run
// the eager walk from the first capture on.
func TestKernelEquivalenceDelta(t *testing.T) {
	var ops []byte
	for range 5 {
		ops = append(ops, opTop, 0, 0, opCoverDelta, greedy, 0, opDrop, greedy, 0)
	}
	for u := byte(0); u < 64; u += 5 {
		ops = append(ops, opCreditDelta, u, 127, opCredit, u+1, 127)
	}
	ops = append(ops, opGrow, 39, 0, opTop, 1, 0)
	runModel(t, 11, 60, 255, 5, 0, 0, ops) // 64 nodes, 263 sets
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
