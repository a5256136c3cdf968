package rrset

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
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
	if f.MemBytes() != 3*4+4*4 {
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

// checkCoverJoin decodes every row of the joined index inv and checks it
// record for record against rows — the id-row builder's index over the same
// family and base — and fam's sets: one header per id holding the id above
// the size bits; when the set R has at most joinInlineCap members, the size
// field |R|−1 and R∖{u} inline right behind it in set order, none of them the
// row's node u; joinSpill and nothing else when it has more; and no word
// left over. IDs and Count, which decode the headers, must answer what the
// id rows do. It returns the record counts of each kind.
func checkCoverJoin(t testing.TB, fam *SetFamily, inv, rows *Inverted) (inline, spilled int) {
	t.Helper()
	if !inv.joined || rows.joined {
		t.Fatalf("base %d, %d sets: joined = %v and %v, want an index with its join and one with id rows", inv.base, fam.Len(), inv.joined, rows.joined)
	}
	for u := int32(0); u < int32(inv.NumNodes()); u++ {
		row, p := inv.row(u), 0
		ids := rows.row(u)
		for r, id := range ids {
			if p >= len(row) {
				t.Fatalf("node %d: row ends after %d of %d records", u, r, len(ids))
			}
			h := row[p]
			if h < 0 || h>>joinSizeBits != id {
				t.Fatalf("node %d record %d: header %#x, want id %d above the size bits", u, r, h, id)
			}
			set, sz := fam.Set(int(id-inv.base)), int(h&joinSizeMask)
			if len(set) > joinInlineCap {
				if sz != joinSpill {
					t.Fatalf("node %d set %d: %d members recorded inline as %d", u, id, len(set), sz)
				}
				p++
				spilled++
				continue
			}
			others := slices.DeleteFunc(slices.Clone(set), func(w int32) bool { return w == u })
			if sz != len(set)-1 || p+1+sz > len(row) || !slices.Equal(row[p+1:p+1+sz], others) {
				t.Fatalf("node %d set %d %v: record size %d, want %d and the members %v inline", u, id, set, sz, len(set)-1, others)
			}
			if slices.Contains(row[p+1:p+1+sz], u) {
				t.Fatalf("node %d set %d: the row's own node is inline in %v", u, id, row[p+1:p+1+sz])
			}
			p += 1 + sz
			inline++
		}
		if p != len(row) {
			t.Fatalf("node %d: %d words past its last record", u, len(row)-p)
		}
		if got := inv.IDs(u); !slices.Equal(got, ids) || inv.Count(u) != len(ids) {
			t.Fatalf("node %d: IDs %v and Count %d decoded from the headers, id rows hold %v", u, got, inv.Count(u), ids)
		}
	}
	return inline, spilled
}

// oneSegment returns a collection whose only segment is v indexed by inv at
// inv.base, nothing covered — the state a grown segment at that id has,
// without the segments below it: their covered bits are never read, and
// the untouched pages stay unbacked.
func oneSegment(n int, v FamilyView, inv *Inverted) *Collection {
	c := NewCollection(n)
	c.segs = []covSegment{{base: inv.base, view: v, inv: inv}}
	c.numSets = int(inv.base) + v.Len()
	c.covered = make([]uint64, (c.numSets+63)/64)
	for u := range c.cov {
		c.cov[u] = int32(inv.Count(int32(u)))
	}
	c.invalidate()
	return c
}

// isCovered reads set id's bit in the covered bitmap.
func (c *Collection) isCovered(id int) bool { return c.covered[id>>6]>>(uint(id)&63)&1 != 0 }

// checkJoinMatchesIDRows builds fam's index at base both ways — BuildInverted's
// join and the id-row builder's rows — and requires the join to answer
// every question the id rows do: the records themselves (checkCoverJoin),
// the opening clip at view lengths 0, 1, random and all, and the sharded
// delta walk, cover and credit at a random firstID, step for step. It
// returns the record counts of each kind.
func checkJoinMatchesIDRows(t testing.TB, rng *xrand.Rand, n int, fam *SetFamily, base int32) (inline, spilled int) {
	t.Helper()
	v := fam.View()
	inv, rows := BuildInverted(n, v, base), buildInverted(n, v, base, false)
	inline, spilled = checkCoverJoin(t, fam, inv, rows)
	k := fam.Len()
	for _, at := range []int{0, 1, rng.IntN(k + 1), k} {
		if got, want := clipInverted(inv, at), clipInverted(rows, at); !slices.Equal(got, want) {
			t.Fatalf("base %d: clip to %d sets over the join %v, over id rows %v", base, at, got, want)
		}
	}
	joined, plain := oneSegment(n, v, inv), oneSegment(n, v, rows)
	var jn, jd, pn, pd []int32
	for step := 0; step < 12; step++ {
		u := int32(rng.IntN(n))
		var jc, pc int
		op := fmt.Sprintf("CoverNodeDelta(%d)", u)
		if step%2 == 0 {
			jc, jn, jd = joined.CoverNodeDelta(u, jn, jd)
			pc, pn, pd = plain.CoverNodeDelta(u, pn, pd)
		} else {
			first := int(base) + rng.IntN(k+1)
			op = fmt.Sprintf("CountAndCoverFromDelta(%d, %d)", u, first)
			jc, jn, jd = joined.CountAndCoverFromDelta(u, first, jn, jd)
			pc, pn, pd = plain.CountAndCoverFromDelta(u, first, pn, pd)
		}
		if jm, pm := deltaOf(t, jn, jd), deltaOf(t, pn, pd); jc != pc || !maps.Equal(jm, pm) {
			t.Fatalf("base %d step %d: %s over the join = (%d, %v), over id rows (%d, %v)", base, step, op, jc, jm, pc, pm)
		}
	}
	return inline, spilled
}

// TestCoverJoinOwnNodeMidSet: node 7 sits mid-set in an inline record, in a
// spilled record and, alone, in a singleton. Its row holds [id | 2, 3, 1],
// the spilled header and the singleton's lone header, and every walk over
// it takes 7's own decrement once per set, exactly as the id rows (and, in
// hard mode, the bitmap) do: the same covered count and node → decrement
// map from the delta walk, the same coverage from the plain cover, and
// bit-identical weighted coverage and claimed mass from the soft commit.
func TestCoverJoinOwnNodeMidSet(t *testing.T) {
	const n, u = 12, 7
	fam := FamilyFromSets([][]int32{
		{3, u, 1},
		{0, 1, 2, u, 4, 5, 6, 8, 9, 10},
		{u},
		{2, 3},
	})
	v := fam.View()
	inv, rows := BuildInverted(n, v, 0), buildInverted(n, v, 0, false)
	checkCoverJoin(t, fam, inv, rows)
	want := []int32{0<<joinSizeBits | 2, 3, 1, 1<<joinSizeBits | joinSpill, 2 << joinSizeBits}
	if got := inv.row(u); !slices.Equal(got, want) {
		t.Fatalf("row %d = %v, want %v", u, got, want)
	}

	inv.PrepareCoverBits()
	bits := NewCollectionFromFamily(n, v, inv)
	if bits.UseKernel(KernelBitset) != KernelBitset {
		t.Fatal("no bitset kernel over the prepared index")
	}
	wantDelta := map[int32]int32{u: 3, 3: 1, 1: 2, 0: 1, 2: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 1, 10: 1}
	for name, c := range map[string]*Collection{"join": oneSegment(n, v, inv), "id rows": oneSegment(n, v, rows), "bitset": bits} {
		covered, nodes, decs := c.CoverNodeDelta(u, nil, nil)
		if got := deltaOf(t, nodes, decs); covered != 3 || !maps.Equal(got, wantDelta) {
			t.Errorf("%s: CoverNodeDelta(%d) = (%d, %v), want (3, %v)", name, u, covered, got, wantDelta)
		}
		if c.Coverage(3) != 1 || c.Coverage(2) != 1 {
			t.Errorf("%s: set {2, 3} lost coverage: cov[2] = %d, cov[3] = %d", name, c.Coverage(2), c.Coverage(3))
		}
	}
	hard := oneSegment(n, v, inv)
	if got := hard.CoverNode(u); got != 3 || hard.Coverage(1) != 0 {
		t.Fatalf("CoverNode(%d) over the join covered %d sets and left cov[1] = %d, want 3 and 0", u, got, hard.Coverage(1))
	}

	joined, plain := NewWeightedCollectionFromFamily(n, v, inv), NewWeightedCollection(n)
	plain.AddFamily(v)
	if plain.segs[0].inv.joined {
		t.Fatal("want the walk over id rows beside the join")
	}
	for _, delta := range []float64{0.3, 0.7} {
		a, b := joined.Commit(u, delta), plain.Commit(u, delta)
		if math.Float64bits(a) != math.Float64bits(b) || joined.CoveredMass() != plain.CoveredMass() {
			t.Fatalf("Commit(%d, %g): the join claims %v, id rows %v", u, delta, a, b)
		}
		for w := int32(0); w < n; w++ {
			if x, y := joined.WeightedCoverage(w), plain.WeightedCoverage(w); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("Commit(%d, %g): wcov[%d] = %v over the join, %v over id rows", u, delta, w, x, y)
			}
		}
	}
}

// TestCoverJoinRecords: the index BuildInverted builds is the cover join —
// the id rows with each set's header and (up to the inline cap) members,
// record for record — and answers the clip and the delta walk exactly as
// the id rows do, at base 0 and at ids high enough to fill the header's id
// bits. Families here (randomKernelFamily at avg 10) hold sets of 1–19
// members, on both sides of the inline cap.
func TestCoverJoinRecords(t *testing.T) {
	var inline, spilled int
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		n := 2 + rng.IntN(150)
		fam := randomKernelFamily(rng, n, 1+rng.IntN(600), 10)
		for _, base := range []int32{0, int32(rng.IntN(1 << 20)), joinIDLimit - int32(fam.Len())} {
			i, s := checkJoinMatchesIDRows(t, rng, n, fam, base)
			inline, spilled = inline+i, spilled+s
		}
	}
	if inline == 0 || spilled == 0 {
		t.Fatalf("%d inline and %d spilled records: the families never exercised both", inline, spilled)
	}
}

// checkRangeCount fails unless building v over ranges set ranges gives the
// one-range build's offsets and rows, word for word.
func checkRangeCount(t *testing.T, n int, v FamilyView, base int32, joined bool, ranges int) {
	t.Helper()
	want := buildInvertedRanges(n, v, base, joined, 1)
	got := buildInvertedRanges(n, v, base, joined, ranges)
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%d sets, base %d, joined %v: %d ranges built off %v rows %v, one range off %v rows %v",
			v.Len(), base, joined, ranges, got.off, got.rows, want.off, want.rows)
	}
}

// TestBuildInvertedAnyRangeCount: the cover join and the id rows come out
// the same bytes however many set ranges build them, and however many
// workers run the ranges — over sets both sides of the inline cap,
// singletons, a base past zero, and an empty view.
func TestBuildInvertedAnyRangeCount(t *testing.T) {
	defer SetMaxWorkers(0)
	rng := xrand.New(11)
	const n = 90
	fam := randomKernelFamily(rng, n, 700, 10)
	fam.Append([]int32{5})
	fam.Append([]int32{5})
	fam.Append([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	var singles, spilled int
	for i := 0; i < fam.Len(); i++ {
		switch sz := len(fam.Set(i)); {
		case sz == 1:
			singles++
		case sz > joinInlineCap:
			spilled++
		}
	}
	if singles == 0 || spilled == 0 {
		t.Fatalf("%d singletons and %d spilled sets: the family misses a shape", singles, spilled)
	}
	views := []FamilyView{fam.View(), fam.Window(100, 103), NewSetFamily().View()}
	for _, workers := range []int{1, 2, 0} {
		SetMaxWorkers(workers)
		for _, v := range views {
			for _, base := range []int32{0, 12345} {
				for _, joined := range []bool{true, false} {
					for _, ranges := range []int{1, 2, 3, 7} {
						checkRangeCount(t, n, v, base, joined, ranges)
					}
				}
			}
		}
	}
}

// FuzzCoverJoinRecords runs the same checks on fuzzed shapes and bases, and
// builds each view over a fuzzed number of set ranges (TestBuildInvertedAnyRangeCount).
func FuzzCoverJoinRecords(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(40), uint32(0), uint8(1))
	f.Add(uint64(7), uint8(200), uint8(255), uint32(1<<27-1), uint8(3))
	f.Add(uint64(42), uint8(1), uint8(3), uint32(12345), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk uint8, b uint32, rr uint8) {
		rng := xrand.New(seed)
		n, k := 1+int(nn), 1+int(kk)
		fam := randomKernelFamily(rng, n, k, 10)
		base := int32(b % uint32(joinIDLimit-k+1))
		checkJoinMatchesIDRows(t, rng, n, fam, base)
		for _, joined := range []bool{true, false} {
			checkRangeCount(t, n, fam.View(), base, joined, 1+int(rr%16))
		}
	})
}

// TestCoverJoinIDLimit: an index whose ids reach 2^27 — which a record
// header cannot hold — keeps id rows, one whose last id is 2^27−1 is
// joined, and a collection over the id-row index covers, seed for seed,
// exactly what the same sets cover at base 0 through the join.
func TestCoverJoinIDLimit(t *testing.T) {
	rng := xrand.New(3)
	const n, k = 80, 500
	fam := randomKernelFamily(rng, n, k, 10)
	v := fam.View()
	checkCoverJoin(t, fam, BuildInverted(n, v, joinIDLimit-k), buildInverted(n, v, joinIDLimit-k, false))

	const base = joinIDLimit - k/2
	ref := NewCollectionFromFamily(n, v, BuildInverted(n, v, 0))
	if !ref.segs[0].inv.joined || ref.UseKernel(KernelSparse) != KernelSparse {
		t.Fatal("base 0: no sparse walk over a join")
	}
	inv := BuildInverted(n, v, base)
	if inv.joined {
		t.Fatalf("ids %d..%d: joined, want id rows", base, base+k-1)
	}
	high := oneSegment(n, v, inv)
	for round := 0; ; round++ {
		u, cov, ok := ref.BestNode(nil)
		hu, hcov, hok := high.BestNode(nil)
		if u != hu || cov != hcov || ok != hok {
			t.Fatalf("round %d: BestNode at base 0 = (%d, %d, %v), at base %d = (%d, %d, %v)", round, u, cov, ok, base, hu, hcov, hok)
		}
		if !ok {
			break
		}
		if got, want := high.CoverNode(u), ref.CoverNode(u); got != want {
			t.Fatalf("round %d: CoverNode(%d) covered %d sets at base %d, %d at base 0", round, u, got, base, want)
		}
		for w := 0; w < n; w++ {
			if high.cov[w] != ref.cov[w] {
				t.Fatalf("round %d: node %d residual coverage %d at base %d, %d at base 0", round, w, high.cov[w], base, ref.cov[w])
			}
		}
		for i := 0; i < k; i++ {
			if high.isCovered(base+i) != ref.isCovered(i) {
				t.Fatalf("round %d: set %d covered = %v at base %d, %v at base 0", round, i, high.isCovered(base+i), base, ref.isCovered(i))
			}
		}
	}
	if ref.NumCovered() != k || high.NumCovered() != k {
		t.Fatalf("greedy covered %d and %d of %d sets", ref.NumCovered(), high.NumCovered(), k)
	}
}

// TestRowFormFollowsLazyLine: BuildInverted joins an index below
// LazyMinNodes nodes and writes id rows, one word per membership, at
// LazyMinNodes and above — the line at which Reset starts a sparse
// collection lazy, so a collection over the index starts lazy exactly when
// the index holds id rows over that many nodes. Ids that reach 2^27 keep
// id rows at any node count.
func TestRowFormFollowsLazyLine(t *testing.T) {
	fam := FamilyFromSets([][]int32{{0, 1}, {1, 2, 3}, {3}})
	v := fam.View()
	for _, c := range []struct {
		n      int
		base   int32
		joined bool
	}{
		{LazyMinNodes - 1, 0, true},
		{LazyMinNodes, 0, false},
		{2 * LazyMinNodes, 0, false},
		{4, joinIDLimit - 3, true},
		{4, joinIDLimit - 2, false},
		{LazyMinNodes - 1, joinIDLimit - 2, false},
		{LazyMinNodes, joinIDLimit - 3, false},
	} {
		tag := fmt.Sprintf("n = %d, base %d", c.n, c.base)
		inv := BuildInverted(c.n, v, c.base)
		if inv.joined != c.joined {
			t.Fatalf("%s: joined = %v, want %v", tag, inv.joined, c.joined)
		}
		if !c.joined {
			if len(inv.rows) != int(fam.NumMembers()) {
				t.Fatalf("%s: %d row words for %d memberships", tag, len(inv.rows), fam.NumMembers())
			}
			if got, want := inv.row(3), []int32{c.base + 1, c.base + 2}; !slices.Equal(got, want) {
				t.Fatalf("%s: node 3's row %v, want ids %v", tag, got, want)
			}
		}
		if c.base != 0 {
			continue
		}
		lazy := NewCollectionFromFamily(c.n, v, inv).lazy != nil
		if want := !c.joined && c.n >= LazyMinNodes; lazy != want {
			t.Fatalf("%s: Reset started lazy = %v, want %v", tag, lazy, want)
		}
	}
}

// TestSampleRangeRRIntoWorkerInvariance: the sampler draws the exact same
// stream for any worker cap and any split into grow calls.
func TestSampleRangeRRIntoWorkerInvariance(t *testing.T) {
	s := streamTestSampler(t)
	for _, form := range streamForms {
		want := drawRange(form.draw, s, 0, 4*StreamBlockSize, 7)
		for _, cap := range []int{0, 1, 3} {
			SetMaxWorkers(cap)
			fam := NewSetFamily()
			form.draw(s, 0, 2*StreamBlockSize, xrand.New(7), fam)
			form.draw(s, 2*StreamBlockSize, 4*StreamBlockSize, xrand.New(7), fam)
			if got := fam.Sets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: stream diverged at worker cap %d", form.name, cap)
			}
		}
		SetMaxWorkers(0)
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
