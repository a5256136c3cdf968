package rrset

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// The collection model. A Collection runs Algorithm 2's cover (and
// Algorithm 4's credit) in one of several forms — eager over the cover
// join, eager over id rows, lazy counts, the bitset sweep, hand-grown id-row
// segments — and materialize is the one way from a fast form back to the
// eager walk. A modelRun opens one collection per form of a lockstep group,
// drives the group through a sequence of operations, and after every
// operation checks each collection against collectionModel, which holds
// nothing but the sets and their covered flags and recounts residual
// coverage over id rows. Every answer, every delta vector and every heap
// array must also agree across the group.

// form is how a member of the lockstep group is opened.
type form uint8

const (
	joinForm       form = iota // eager over the cover join
	rowsForm                   // eager over id rows
	lazyForm                   // lazy over id rows, as Reset opens one over LazyMinNodes nodes or more
	bitsetForm                 // the bitset sweep over a joined index (PrepareCoverBits)
	bitsetRowsForm             // the bitset sweep over id rows
	grownForm                  // NewCollection + AddFamily: two id-row growth segments, no opening
	numForms
)

var formNames = [numForms]string{"join", "rows", "lazy", "bitset", "bitset/rows", "grown"}

// The operations, one per three bytes (op, x, y): x names a node (with
// greedy set, the last TopNodesInto's first answer), a view length, a
// growth size, a kernel or a top-k depth; y a credit boundary or the nodes
// a top-k query finds ineligible.
const (
	opReset       byte = iota // Reset over the view viewLen(x)
	opCover                   // CoverNode
	opDrop                    // Drop
	opCoverDelta              // CoverNodeDelta
	opCreditDelta             // CountAndCoverFromDelta from first(y)
	opCredit                  // CountAndCoverFrom from first(y)
	opGrow                    // AddFamily of 1 + x%48 fresh sets
	opUseKernel               // UseKernel(x&1)
	opMaterialize             // materialize
	opCoverage                // Coverage
	opTop                     // TopNodesInto(1 + x%3)
	opSync                    // SyncHeap
	numOps

	greedy byte = 0x80
)

// collectionModel is the from-scratch state of a collection: its sets by
// global id, each node's ascending id row, and a covered flag per set.
type collectionModel struct {
	sets    [][]int32
	ids     [][]int32
	covered []bool
}

func (m *collectionModel) add(v FamilyView) {
	for i := 0; i < v.Len(); i++ {
		for _, u := range v.Set(i) {
			m.ids[u] = append(m.ids[u], int32(len(m.sets)))
		}
		m.sets = append(m.sets, v.Set(i))
		m.covered = append(m.covered, false)
	}
}

// cov recounts u's residual coverage over its id row.
func (m *collectionModel) cov(u int32) int {
	left := 0
	for _, id := range m.ids[u] {
		if !m.covered[id] {
			left++
		}
	}
	return left
}

// cover marks the uncovered sets with id ≥ first holding u and returns how
// many it marked and each node's coverage drop.
func (m *collectionModel) cover(u int32, first int) (int, map[int32]int32) {
	covered, drops := 0, map[int32]int32{}
	for _, id := range m.ids[u] {
		if int(id) >= first && !m.covered[id] {
			m.covered[id] = true
			covered++
			for _, w := range m.sets[id] {
				drops[w]++
			}
		}
	}
	return covered, drops
}

// member is one collection of the group and the state the model predicts
// for its run: lazy, on the bitset sweep, or eager.
type member struct {
	form         form
	inv          *Inverted // nil for grownForm
	c            *Collection
	lazy, bitset bool
	nodes, decs  []int32
	covs         []int
}

// modelRun is one instance, its group and its model.
type modelRun struct {
	t      *testing.T
	n, a   int
	fam    *SetFamily
	rng    *xrand.Rand // growth families
	m      collectionModel
	group  []*member
	grown  bool                // a growth segment landed since the last Reset
	opened map[*Inverted][]int // the view lengths each index holds openings for, most recent first
	top    []int32             // the last TopNodesInto answer
	step   int
	tag    string
}

// newModelRun builds the instance — a random family of sets sets over n
// nodes, about a members each, drawn from rng, which then draws the growth
// families — and a group of numForms members, member i of form
// i + forms>>(3i)&7 (mod numForms); forms 0 opens one of each. Members of
// one form share their index.
func newModelRun(t *testing.T, rng *xrand.Rand, n, sets, a int, forms uint32) *modelRun {
	r := &modelRun{t: t, n: n, a: a, opened: map[*Inverted][]int{}, rng: rng}
	r.fam = randomKernelFamily(r.rng, r.n, sets, r.a)
	var invs [numForms]*Inverted
	for i := range numForms {
		f := (i + form(forms>>(3*i)&7)) % numForms
		if f != grownForm && invs[f] == nil {
			invs[f] = buildInverted(r.n, r.fam.View(), 0, f == joinForm || f == bitsetForm)
			if f == bitsetForm || f == bitsetRowsForm {
				invs[f].PrepareCoverBits()
			}
		}
		r.group = append(r.group, &member{form: f, inv: invs[f], c: new(Collection)})
	}
	return r
}

// runModel decodes the model's instance — 8 + kk sets over 4 + nn%96
// nodes, about 1 + avg%10 members each — opens its group over the view
// viewLen(at), runs ops on it and finishes it.
func runModel(t *testing.T, seed uint64, nn, kk, avg, at uint8, forms uint32, ops []byte) {
	n := 4 + int(nn)%96
	r := newModelRun(t, xrand.New(seed), n, 8+int(kk), min(1+int(avg)%10, n-1), forms)
	r.open(r.viewLen(at))
	r.run(ops...)
	r.finish()
}

// open opens the group over the first k sets and checks it.
func (r *modelRun) open(k int) {
	r.step++
	r.tag = fmt.Sprintf("Reset(%d)", k)
	r.reset(k)
	r.check()
}

// viewLen maps a byte onto the view lengths have..0, byte 0 the whole family.
func (r *modelRun) viewLen(b byte) int { return r.fam.Len() - int(b)*r.fam.Len()/255 }

// first maps a byte onto a credit boundary, up to a few past the last set.
func (r *modelRun) first(b byte) int { return int(b) * (len(r.m.sets) + 3) / 255 }

func (r *modelRun) fail(mb *member, format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d %s: %s: %s", r.step, r.tag, formNames[mb.form], fmt.Sprintf(format, args...))
}

// reset opens every member over the first k sets and checks each opening:
// built on an index's first Reset at k and borrowed while the index keeps
// it, by a soft collection too, with the cut, heap and soft wcov and heap
// of NewCollection / NewWeightedCollection + AddFamily — also when a node
// is dropped before the first sync.
func (r *modelRun) reset(k int) {
	v := r.fam.Prefix(k)
	r.m = collectionModel{ids: make([][]int32, r.n)}
	r.m.add(v)
	r.grown = false
	ref, wref, dropped := NewCollection(r.n), NewWeightedCollection(r.n), NewCollection(r.n)
	ref.AddFamily(v)
	wref.AddFamily(v)
	dropped.AddFamily(v)
	drop := int32(k % r.n)
	dropped.Drop(drop)
	ref.SyncHeap()
	wref.SyncHeap()
	dropped.SyncHeap()
	for _, mb := range r.group {
		mb.lazy, mb.bitset = mb.form == lazyForm, mb.form == bitsetForm || mb.form == bitsetRowsForm
		if mb.form == grownForm {
			mb.c = NewCollection(r.n)
			mb.c.AddFamily(r.fam.Window(0, k/2))
			mb.c.AddFamily(r.fam.Window(k/2, k))
			continue
		}
		lens := r.opened[mb.inv]
		built := !slices.Contains(lens, k)
		lens = append([]int{k}, slices.DeleteFunc(lens, func(l int) bool { return l == k })...)
		r.opened[mb.inv] = lens[:min(len(lens), OpeningCap)]
		if mb.c.Reset(r.n, v, mb.inv); mb.c.OpeningBuilt() != built {
			r.fail(mb, "OpeningBuilt = %v, want %v", !built, built)
		}
		hard, soft, early := NewCollectionFromFamily(r.n, v, mb.inv), NewWeightedCollectionFromFamily(r.n, v, mb.inv), NewCollectionFromFamily(r.n, v, mb.inv)
		if hard.OpeningBuilt() || soft.OpeningBuilt() {
			r.fail(mb, "a second collection rebuilt the opening (hard %v, soft %v)", hard.OpeningBuilt(), soft.OpeningBuilt())
		}
		if mb.lazy {
			mb.c.startLazy()
			hard.startLazy()
		}
		if !slices.Equal(mb.c.segs[0].cut, ref.cov) || !slices.Equal(soft.wcov, wref.wcov) {
			r.fail(mb, "cut %v, soft wcov %v; from scratch %v, %v", mb.c.segs[0].cut, soft.wcov, ref.cov, wref.wcov)
		}
		early.Drop(drop)
		hard.SyncHeap()
		early.SyncHeap()
		soft.SyncHeap()
		if !slices.Equal(hard.pq, ref.pq) || !slices.Equal(soft.pq, wref.pq) || !slices.Equal(early.pq, dropped.pq) {
			r.fail(mb, "opened heaps differ from the from-scratch ones: hard %v, soft %v, dropped %d %v",
				!slices.Equal(hard.pq, ref.pq), !slices.Equal(soft.pq, wref.pq), drop, !slices.Equal(early.pq, dropped.pq))
		}
	}
}

// run applies ops, three bytes an operation, and checks the group after
// each.
func (r *modelRun) run(ops ...byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		r.step++
		r.apply(ops[0]%numOps, ops[1], ops[2])
		r.check()
	}
}

// apply runs one operation on the group and the model.
func (r *modelRun) apply(op, x, y byte) {
	u, first := int32(x)%int32(r.n), r.first(y)
	if x&greedy != 0 && len(r.top) > 0 {
		u = r.top[0]
	}
	switch op {
	case opCoverDelta, opCreditDelta, opCredit, opGrow, opUseKernel, opMaterialize:
		for _, mb := range r.group { // each hands every member to the eager walk
			mb.lazy, mb.bitset = false, false
		}
	}
	switch op {
	case opReset:
		r.tag = fmt.Sprintf("Reset(%d)", r.viewLen(x))
		r.reset(r.viewLen(x))
	case opCover:
		r.tag = fmt.Sprintf("CoverNode(%d)", u)
		want, _ := r.m.cover(u, 0)
		for _, mb := range r.group {
			if got := mb.c.CoverNode(u); got != want {
				r.fail(mb, "covered %d sets, the model %d", got, want)
			}
		}
	case opDrop:
		r.tag = fmt.Sprintf("Drop(%d)", u)
		for _, mb := range r.group {
			mb.c.Drop(u)
		}
	case opCoverDelta, opCreditDelta:
		if op == opCoverDelta {
			first = 0
		}
		r.tag = fmt.Sprintf("delta(%d, from %d)", u, first)
		want, drops := r.m.cover(u, first)
		for _, mb := range r.group {
			var got int
			if op == opCoverDelta {
				got, mb.nodes, mb.decs = mb.c.CoverNodeDelta(u, mb.nodes, mb.decs)
			} else {
				got, mb.nodes, mb.decs = mb.c.CountAndCoverFromDelta(u, first, mb.nodes, mb.decs)
			}
			if d := deltaOf(r.t, mb.nodes, mb.decs); got != want || !maps.Equal(d, drops) {
				r.fail(mb, "(%d, %v), the model's coverage drops (%d, %v)", got, d, want, drops)
			}
		}
	case opCredit:
		r.tag = fmt.Sprintf("CountAndCoverFrom(%d, %d)", u, first)
		want, _ := r.m.cover(u, first)
		for _, mb := range r.group {
			if got := mb.c.CountAndCoverFrom(u, first); got != want {
				r.fail(mb, "credited %d sets, the model %d", got, want)
			}
		}
	case opGrow:
		g := randomKernelFamily(r.rng, r.n, 1+int(x)%48, r.a)
		r.tag = fmt.Sprintf("AddFamily(%d sets)", g.Len())
		r.m.add(g.View())
		r.grown = true
		for _, mb := range r.group {
			mb.c.AddFamily(g.View())
		}
	case opUseKernel:
		id := KernelID(x & 1)
		r.tag = fmt.Sprintf("UseKernel(%v)", id)
		for _, mb := range r.group {
			mb.bitset = id == KernelBitset && mb.inv != nil && mb.inv.preparedBits() != nil && !r.grown && mb.c.NumCovered() == 0
			if got := mb.c.UseKernel(id); (got == KernelBitset) != mb.bitset {
				r.fail(mb, "runs %v, want bitset %v", got, mb.bitset)
			}
		}
	case opMaterialize:
		r.tag = "materialize"
		for _, mb := range r.group {
			mb.c.materialize()
		}
	case opCoverage:
		r.tag = fmt.Sprintf("Coverage(%d)", u)
		for _, mb := range r.group {
			if got, want := mb.c.Coverage(u), r.m.cov(u); got != want {
				r.fail(mb, "%d, the model %d", got, want)
			}
		}
	case opTop:
		k, out := 1+int(x)%3, []int32{int32(y) % int32(r.n), int32(y/3) % int32(r.n)}
		eligible := func(u int32) bool { return y == 0 || !slices.Contains(out, u) }
		r.tag = fmt.Sprintf("TopNodesInto(%d) without %v", k, out)
		for _, mb := range r.group {
			mb.nodes, mb.covs = mb.c.TopNodesInto(k, eligible, mb.nodes, mb.covs)
			if g := r.group[0]; !slices.Equal(mb.nodes, g.nodes) || !slices.Equal(mb.covs, g.covs) || len(mb.nodes) > k {
				r.fail(mb, "answered %v/%v, %s %v/%v", mb.nodes, mb.covs, formNames[g.form], g.nodes, g.covs)
			}
			for i, u := range mb.nodes {
				if want := r.m.cov(u); mb.covs[i] != want || want <= 0 || i > 0 && want > mb.covs[i-1] {
					r.fail(mb, "node %d with %d, the model %d, in %v", u, mb.covs[i], want, mb.covs)
				}
			}
		}
		r.top = slices.Clone(r.group[0].nodes)
	case opSync:
		r.tag = "SyncHeap"
		for _, mb := range r.group {
			mb.c.SyncHeap()
		}
	}
}

// check compares every member with the model — set count, covered flags,
// the run's form, every count an eager member keeps and every count a lazy
// one holds stamped fresh — and with the first member's heap and drops.
func (r *modelRun) check() {
	ncov, cov := 0, make([]int32, r.n)
	for _, c := range r.m.covered {
		if c {
			ncov++
		}
	}
	for u := range cov {
		cov[u] = int32(r.m.cov(int32(u)))
	}
	g := r.group[0].c
	for _, mb := range r.group {
		c := mb.c
		if c.NumSets() != len(r.m.sets) || c.NumCovered() != ncov {
			r.fail(mb, "%d sets, %d covered; the model %d, %d", c.NumSets(), c.NumCovered(), len(r.m.sets), ncov)
		}
		for id, want := range r.m.covered {
			if c.isCovered(id) != want {
				r.fail(mb, "set %d covered = %v, the model %v", id, !want, want)
			}
		}
		if (c.lazy != nil) != mb.lazy || (c.Kernel() == KernelBitset) != mb.bitset {
			r.fail(mb, "lazy %v on %v, want lazy %v, bitset %v", c.lazy != nil, c.Kernel(), mb.lazy, mb.bitset)
		}
		for u, want := range cov {
			fresh := c.lazy == nil || c.ncov > 0 && u < len(c.counted) && c.counted[u] == c.countGen
			if fresh && c.cov[u] != want {
				r.fail(mb, "cov[%d] = %d (lazy %v), the model %d", u, c.cov[u], c.lazy != nil, want)
			}
		}
		if !slices.Equal(c.pq, g.pq) || !slices.Equal(c.dead, g.dead) {
			r.fail(mb, "heap %v, %s %v (or the drops differ)", c.pq, formNames[r.group[0].form], g.pq)
		}
	}
}

// finish reads every count through Coverage, turns every member eager —
// its whole count vector must then be the model's — and syncs its heap.
func (r *modelRun) finish() {
	r.step, r.tag = r.step+1, "finish"
	for _, mb := range r.group {
		for u := range int32(r.n) {
			if got, want := mb.c.Coverage(u), r.m.cov(u); got != want {
				r.fail(mb, "Coverage(%d) = %d, the model %d", u, got, want)
			}
		}
		mb.c.materialize()
		mb.c.SyncHeap()
		mb.lazy, mb.bitset = false, false
	}
	r.check()
}

// modelOps draws steps operations like a greedy run's — top-k queries,
// covers of their answer, drops, counts read and heap syncs — and, with
// weight other of 40, any operation at all: most of those end a lazy or
// bitset run.
func modelOps(seed uint64, steps, other int) []byte {
	rng := xrand.New(seed ^ 0x5eed)
	ops := make([]byte, 0, 3*steps)
	for range steps {
		op, x := byte(rng.IntN(40)), byte(rng.IntN(256))
		switch {
		case op < byte(other):
			op = byte(rng.IntN(int(numOps)))
		case op < 24:
			op = opTop
		case op < 34:
			op, x = opCover, x|greedy
		case op < 37:
			op = opDrop
		default:
			op = opCoverage + 2*(op%2) // or opSync
		}
		ops = append(ops, op, x, byte(rng.IntN(256)))
	}
	return ops
}

// FuzzCollectionModel decodes an instance (seed, nn, kk, avg), the group's
// forms, the opening view (at) and up to 200 operations, and runs them on
// the group and the model in lockstep.
func FuzzCollectionModel(f *testing.F) {
	for _, s := range []struct {
		seed            uint64
		nn, kk, avg, at uint8
		forms           uint32
		steps, other    int
	}{
		// The instance of the one corpus entry the kernel-equivalence
		// fuzzer found (ffa1ae779914421d): 10 nodes, 221 sets of about 8.
		{159, 6, 0xD5, 'C', 0, 0, 24, 20},
		// Any operation at all, over a group whose forms come in pairs on
		// one index (join, join, lazy, lazy, bitset/rows, bitset/rows), so
		// the second of each pair borrows the opening the first built.
		{2, 40, 120, 5, 60, 0o505050, 60, 40},
		// A long, mostly greedy run over a large instance, the group rows,
		// rows, bitset/rows, bitset, rows, grown.
		{31, 95, 255, 9, 30, 0o030201, 200, 12},
		// A mid-sized instance with one of each form, and a 7-node one.
		{5, 17, 64, 4, 90, 0, 120, 6},
		{77, 3, 0, 1, 128, 0, 40, 30},
		// The fuzzers below seed the shapes of the four pairwise fuzzers
		// the model replaced; this table holds no copy of them.
	} {
		f.Add(s.seed, s.nn, s.kk, s.avg, s.at, s.forms, modelOps(s.seed, s.steps, s.other))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg, at uint8, forms uint32, ops []byte) {
		runModel(t, seed, nn, kk, avg, at, forms, ops[:min(len(ops), 3*200)])
	})
}

// The four pairwise fuzzers the model replaced keep their names, input
// shapes, decodings and seeds; each now drives the model with the
// operations it used to pair two forms over.

// FuzzKernelEquivalence: cover, credit, delta and top-k answers agree
// across every form, the bitset sweep among them.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg uint8) {
		runModel(t, seed, nn, kk, avg, 0, 0, modelOps(seed, 24, 20))
	})
}

// FuzzDeltaCapture: twelve delta captures, CoverNodeDelta and
// CountAndCoverFromDelta in turn, with a growth segment landing halfway;
// each vector must be the model's coverage drops.
func FuzzDeltaCapture(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg uint8) {
		rng := xrand.New(seed ^ 0xde17a)
		var ops []byte
		for step := range 12 {
			if step == 6 {
				ops = append(ops, opGrow, byte(rng.IntN(80)), 0)
			}
			ops = append(ops, opCoverDelta+byte(step%2)*(opCreditDelta-opCoverDelta), byte(rng.IntN(256)), byte(rng.IntN(256)))
		}
		runModel(t, seed, nn, kk, avg, 0, 0, ops)
	})
}

// FuzzLazyCoverage: a long greedy run over 1 + 2kk sets of about
// 1 + avg%12 members, opened at the prefix at%(sets+1), lazy in lockstep
// with the eager forms; joined false leaves the cover join out of the
// group.
func FuzzLazyCoverage(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3), uint8(16), true)
	f.Add(uint64(99), uint8(60), uint8(200), uint8(7), uint8(150), false)
	f.Add(uint64(123456), uint8(95), uint8(255), uint8(12), uint8(255), true)
	f.Add(uint64(7), uint8(90), uint8(255), uint8(2), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg, at uint8, joined bool) {
		var forms uint32
		if !joined {
			forms = 1 | 1<<3 // join → rows, bitset → bitset/rows
		}
		n, sets := 4+int(nn)%96, 1+2*int(kk)
		r := newModelRun(t, xrand.New(seed), n, sets, min(1+int(avg)%12, n-1), forms)
		r.open(int(at) % (sets + 1))
		r.run(modelOps(seed, 160, 1)...)
		r.finish()
	})
}

// FuzzOpeningMatchesFromScratch: openings of 1 + kk sets at the prefix
// at%(sets+1), checked against the from-scratch build on every Reset,
// then a short run.
func FuzzOpeningMatchesFromScratch(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3), uint8(5))
	f.Add(uint64(99), uint8(32), uint8(200), uint8(7), uint8(200))
	f.Add(uint64(123456), uint8(64), uint8(255), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nn, kk, avg, at uint8) {
		n, sets := 4+int(nn)%96, 1+int(kk)
		r := newModelRun(t, xrand.New(seed), n, sets, min(1+int(avg)%10, n-1), 0)
		r.open(int(at) % (sets + 1))
		r.run(modelOps(seed, 8, 4)...)
		r.finish()
	})
}
