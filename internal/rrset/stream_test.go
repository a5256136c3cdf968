package rrset

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func streamTestSampler(t testing.TB) *Sampler {
	t.Helper()
	b := graph.NewBuilder(40)
	r := xrand.New(123)
	for e := 0; e < 160; e++ {
		u, v := int32(r.IntN(40)), int32(r.IntN(40))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	probs := make([]float32, g.M())
	for i := range probs {
		probs[i] = 0.3
	}
	return NewSampler(g, probs, topic.ConstCTP{Nodes: g.N(), P: 0.5})
}

// streamForms are the sampler's two stream forms; the tests that pin the
// stream contract hold both to it.
var streamForms = []struct {
	name string
	draw func(s *Sampler, from, to int, rng *xrand.Rand, fam *SetFamily)
}{
	{"RR", (*Sampler).SampleRangeRRInto},
	{"RRC", (*Sampler).SampleRangeRRCInto},
}

// sampleRange draws RR stream sets [from, to) into a fresh arena.
func sampleRange(s *Sampler, from, to int, seed uint64) [][]int32 {
	return drawRange((*Sampler).SampleRangeRRInto, s, from, to, seed)
}

// drawRange draws sets [from, to) of one stream form into a fresh arena.
func drawRange(draw func(*Sampler, int, int, *xrand.Rand, *SetFamily), s *Sampler, from, to int, seed uint64) [][]int32 {
	fam := NewSetFamily()
	draw(s, from, to, xrand.New(seed), fam)
	return fam.Sets()
}

// TestSampleRangeRRBatchInvariance is the contract the reusable index
// rests on: set i depends only on its stream position, never on how the
// range was partitioned into grow calls.
func TestSampleRangeRRBatchInvariance(t *testing.T) {
	s := streamTestSampler(t)
	for _, form := range streamForms {
		whole := drawRange(form.draw, s, 0, 4*StreamBlockSize, 7)
		first := drawRange(form.draw, s, 0, StreamBlockSize, 7)
		rest := drawRange(form.draw, s, StreamBlockSize, 4*StreamBlockSize, 7)
		pieced := append(append([][]int32{}, first...), rest...)
		if !reflect.DeepEqual(whole, pieced) {
			t.Fatalf("%s: stream content depends on growth boundaries", form.name)
		}
		if again := drawRange(form.draw, s, 0, 4*StreamBlockSize, 7); !reflect.DeepEqual(whole, again) {
			t.Fatalf("%s: stream not deterministic", form.name)
		}
	}
}

// TestRRCStreamAtFullCTPIsRR: a CTP of 1 admits every reached node and
// draws no coin, so the RRC stream is the RR stream set for set — the two
// forms share blocks, rng derivation and walk.
func TestRRCStreamAtFullCTPIsRR(t *testing.T) {
	base := streamTestSampler(t)
	s := NewSampler(base.Graph(), base.Probs(), topic.ConstCTP{Nodes: base.Graph().N(), P: 1})
	rr := drawRange((*Sampler).SampleRangeRRInto, s, StreamBlockSize, 3*StreamBlockSize, 9)
	rrc := drawRange((*Sampler).SampleRangeRRCInto, s, StreamBlockSize, 3*StreamBlockSize, 9)
	if !reflect.DeepEqual(rr, rrc) {
		t.Fatal("RRC stream at CTP 1 differs from the RR stream")
	}
}

func TestSampleRangeRRAlignment(t *testing.T) {
	s := streamTestSampler(t)
	for _, r := range [][2]int{{1, StreamBlockSize}, {0, StreamBlockSize + 1}, {StreamBlockSize, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range [%d,%d) accepted", r[0], r[1])
				}
			}()
			sampleRange(s, r[0], r[1], 1)
		}()
	}
	if got := sampleRange(s, StreamBlockSize, StreamBlockSize, 1); len(got) != 0 {
		t.Errorf("empty range returned %d sets", len(got))
	}
}

func TestStreamCeil(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {-3, 0}, {1, StreamBlockSize}, {StreamBlockSize, StreamBlockSize},
		{StreamBlockSize + 1, 2 * StreamBlockSize},
	} {
		if got := StreamCeil(tc.in); got != tc.want {
			t.Errorf("StreamCeil(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := streamTestSampler(t)
	sets := sampleRange(s, 0, 2*StreamBlockSize, 3)
	var buf bytes.Buffer
	if err := EncodeSetFamily(&buf, FamilyFromSets(sets).View()); err != nil {
		t.Fatal(err)
	}
	// A second family on the same stream must decode back to back.
	more := sampleRange(s, 0, StreamBlockSize, 4)
	if err := EncodeSetFamily(&buf, FamilyFromSets(more).View()); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	got, err := DecodeSetFamily(r, s.Graph().N())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonSets(sets), canonSets(got.Sets())) {
		t.Fatal("first family did not round-trip")
	}
	got2, err := DecodeSetFamily(r, s.Graph().N())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonSets(more), canonSets(got2.Sets())) {
		t.Fatal("second family did not round-trip")
	}
}

// canonSets maps nil/empty distinctions away (empty sets round-trip as
// empty, not nil).
func canonSets(sets [][]int32) [][][]int32 {
	out := make([][][]int32, len(sets))
	for i, s := range sets {
		if len(s) == 0 {
			out[i] = nil
			continue
		}
		out[i] = [][]int32{s}
	}
	return out
}

// TestCollectionFromFamilyMatchesAddBatch: the warm-start constructor
// must behave exactly like incremental insertion — including when the
// shared inverted index covers more sets than the view (the clip path).
func TestCollectionFromFamilyMatchesAddBatch(t *testing.T) {
	s := streamTestSampler(t)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, 2*StreamBlockSize, xrand.New(5), fam)
	sets := fam.Prefix(StreamBlockSize).Sets()
	n := s.Graph().N()

	inc := NewCollection(n)
	inc.AddBatch(sets)
	// The inverted index spans both blocks; the view only the first — the
	// constructor must clip the rows.
	inv := BuildInverted(n, fam.View(), 0)
	bulk := NewCollectionFromFamily(n, fam.Prefix(StreamBlockSize), inv)

	for u := int32(0); u < int32(n); u++ {
		if inc.Coverage(u) != bulk.Coverage(u) {
			t.Fatalf("coverage of %d: %d vs %d", u, inc.Coverage(u), bulk.Coverage(u))
		}
	}
	// Greedy runs over both must claim identical coverage masses.
	for k := 0; k < 5; k++ {
		u1, c1, ok1 := inc.BestNode(nil)
		u2, c2, ok2 := bulk.BestNode(nil)
		if ok1 != ok2 || c1 != c2 {
			t.Fatalf("step %d: best (%d,%d,%v) vs (%d,%d,%v)", k, u1, c1, ok1, u2, c2, ok2)
		}
		if !ok1 {
			break
		}
		// Ties may order differently between heap layouts; commit each
		// collection's own pick and compare the claimed count.
		if inc.CoverNode(u1) != bulk.CoverNode(u2) {
			t.Fatalf("step %d: claimed counts differ", k)
		}
		inc.Drop(u1)
		bulk.Drop(u2)
	}
}

// TestCollectionClonesAreIndependent: the clone path (fresh collections
// over one shared sample + inverted index) must give each selection run
// identical, isolated state — one run's covers and drops leak into no
// other.
func TestCollectionClonesAreIndependent(t *testing.T) {
	s := streamTestSampler(t)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, StreamBlockSize, xrand.New(6), fam)
	n := s.Graph().N()
	inv := BuildInverted(n, fam.View(), 0)

	run := func(c *Collection) (picks []int32, covs []int) {
		for k := 0; k < 4; k++ {
			u, cov, ok := c.BestNode(nil)
			if !ok {
				break
			}
			c.CoverNode(u)
			c.Drop(u)
			picks = append(picks, u)
			covs = append(covs, cov)
		}
		return
	}
	first := NewCollectionFromFamily(n, fam.View(), inv)
	p1, c1 := run(first)
	if first.NumCovered() == 0 {
		t.Fatal("first run covered nothing")
	}
	second := NewCollectionFromFamily(n, fam.View(), inv)
	if second.NumCovered() != 0 {
		t.Fatalf("fresh clone starts with %d covered sets", second.NumCovered())
	}
	p2, c2 := run(second)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("clone run diverged: %v/%v vs %v/%v", p1, c1, p2, c2)
	}
}

func TestWeightedCollectionFromFamily(t *testing.T) {
	s := streamTestSampler(t)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, StreamBlockSize, xrand.New(8), fam)
	n := s.Graph().N()
	inv := BuildInverted(n, fam.View(), 0)

	inc := NewWeightedCollection(n)
	inc.AddBatch(fam.Sets())
	c := NewWeightedCollectionFromFamily(n, fam.View(), inv)
	for u := int32(0); u < int32(n); u++ {
		if inc.WeightedCoverage(u) != c.WeightedCoverage(u) {
			t.Fatalf("wcov of %d: %v vs %v", u, inc.WeightedCoverage(u), c.WeightedCoverage(u))
		}
	}

	run := func(c *WeightedCollection) (mass float64) {
		for k := 0; k < 4; k++ {
			u, _, ok := c.BestNode(nil)
			if !ok {
				break
			}
			mass += c.Commit(u, 0.5)
			c.Drop(u)
		}
		return
	}
	m1 := run(c)
	if m1 <= 0 {
		t.Fatal("first run claimed no mass")
	}
	clone := NewWeightedCollectionFromFamily(n, fam.View(), inv)
	if clone.CoveredMass() != 0 {
		t.Fatalf("fresh clone starts with claimed mass %v", clone.CoveredMass())
	}
	if m2 := run(clone); m1 != m2 {
		t.Fatalf("clone run claimed %v, want %v", m2, m1)
	}
}

// TestStreamKeepsPrefixViews: a reader that holds a view of a family's
// first sets while SampleRangeRRInto grows the family past them — and
// reallocates its arena — reads the same offsets and members throughout
// and after. core.Index serves allocations from such views while the
// sample grows; under -race a write into the viewed prefix fails the test.
func TestStreamKeepsPrefixViews(t *testing.T) {
	s := streamTestSampler(t)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, 3*StreamBlockSize, xrand.New(4), fam)
	view := fam.View()
	offsets, members := slices.Clone(view.offsets), slices.Clone(view.members)
	same := func() bool {
		return slices.Equal(view.offsets, offsets) && slices.Equal(view.members, members)
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if !same() {
				t.Error("a prefix view changed while the family grew")
				return
			}
			reads.Add(1)
			runtime.Gosched()
		}
	}()
	for to := 4; to <= 64; to *= 2 {
		s.SampleRangeRRInto(fam.Len(), to*StreamBlockSize, xrand.New(4), fam)
	}
	stop.Store(true)
	wg.Wait()
	if !same() {
		t.Fatal("a prefix view changed after the family grew")
	}
	if reads.Load() == 0 {
		t.Fatal("the reader never ran")
	}
	if whole := drawRange((*Sampler).SampleRangeRRInto, s, 0, 64*StreamBlockSize, 4); !reflect.DeepEqual(fam.Sets(), whole) {
		t.Fatal("the grown family differs from the stream drawn in one call")
	}
}

// TestStreamRingWaitsPastSpan drives a ring of span 2 by hand: a claim a
// whole span past the append point waits until the oldest block is
// appended, and blocks finished out of order reach the family in block
// order. The family already holds the reserve's sample, so the first
// append waits for nothing else.
func TestStreamRingWaitsPastSpan(t *testing.T) {
	held := make([][]int32, reserveSampleBlocks*StreamBlockSize)
	for i := range held {
		held[i] = []int32{-1}
	}
	fam := FamilyFromSets(held)
	r := newBlockRing(fam, 3, 2)
	draw := func(b int) *SetFamily {
		buf := r.claim(b)
		buf.Append([]int32{int32(b)})
		return buf
	}
	b0, b1 := draw(0), draw(1)
	claimed := make(chan *SetFamily)
	go func() { claimed <- draw(2) }()
	select {
	case <-claimed:
		t.Fatal("block 2 was claimed while blocks 0 and 1 were out")
	case <-time.After(20 * time.Millisecond):
	}
	r.finish(1, b1)
	if fam.Len() != len(held) {
		t.Fatalf("block 1 was appended before block 0: %d sets", fam.Len())
	}
	r.finish(0, b0)
	r.finish(2, <-claimed)
	if got, want := fam.Sets()[len(held):], [][]int32{{0}, {1}, {2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("appended %v, want %v", got, want)
	}
}

// TestStreamReservesAlike: the one Reserve of a call projects from a fixed
// sample, not from whichever blocks happen to be drawn when the first one
// is ready, so a grown family's capacity is the same under every worker
// cap and on every repeat.
func TestStreamReservesAlike(t *testing.T) {
	defer SetMaxWorkers(MaxWorkers())
	s := streamTestSampler(t)
	grow := func(workers int) (offsets, members int) {
		SetMaxWorkers(workers)
		fam := NewSetFamily()
		s.SampleRangeRRInto(0, 4*StreamBlockSize, xrand.New(6), fam)
		s.SampleRangeRRInto(fam.Len(), 200*StreamBlockSize, xrand.New(6), fam)
		return cap(fam.offsets), cap(fam.members)
	}
	wantOffsets, wantMembers := grow(1)
	for _, workers := range []int{2, 3, 8, 8, 8} {
		if offsets, members := grow(workers); offsets != wantOffsets || members != wantMembers {
			t.Fatalf("%d workers: capacity %d offsets / %d members, one worker %d / %d",
				workers, offsets, members, wantOffsets, wantMembers)
		}
	}
}

// TestStreamAllocatesArenaOnly pins what growing a non-empty family costs
// in allocation: the arena it grows into, plus, per worker, one BFS scratch
// and at most a ring span of block buffers — nothing per block. With 2 048
// blocks of small sets, per-block arenas and a merge copy would pass the
// bound about twice over.
func TestStreamAllocatesArenaOnly(t *testing.T) {
	defer SetMaxWorkers(MaxWorkers())
	const workers, blocks = 2, 2048
	SetMaxWorkers(workers)
	s := streamTestSampler(t)
	fam := NewSetFamily()
	s.SampleRangeRRInto(0, 4*StreamBlockSize, xrand.New(2), fam)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.SampleRangeRRInto(fam.Len(), (4+blocks)*StreamBlockSize, xrand.New(2), fam)
	runtime.ReadMemStats(&after)
	var maxBlock int64
	for b := 0; b < fam.Len(); b += StreamBlockSize {
		maxBlock = max(maxBlock, int64(fam.offsets[b+StreamBlockSize]-fam.offsets[b]))
	}
	arena := 4 * int64(cap(fam.offsets)+cap(fam.members))
	n := int64(s.Graph().N())
	// A stall can hold out a whole span of buffers, and a buffer grows by
	// append, whose steps add up to about five times the longest block it
	// holds.
	ringBytes := ringSpanPerWorker * (4*(StreamBlockSize+1) + 6*4*maxBlock)
	scratchBytes := n/8 + 2*4*n + 2*4*n + 512
	perWorker := ringBytes + scratchBytes
	got := int64(after.TotalAlloc - before.TotalAlloc)
	if bound := arena + workers*perWorker + 16<<10; got > bound {
		t.Fatalf("growing by %d blocks allocated %d B; arena %d B + %d workers × %d B + 16 KiB = %d B",
			blocks, got, arena, workers, perWorker, bound)
	}
	t.Logf("allocated %d B: arena %d B (%d members held, %d reserved), the rest %d B",
		got, arena, fam.NumMembers(), cap(fam.members), got-arena)
}
