package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rrset"
)

// sameTIRMResult compares the full request-visible surface of two results:
// the allocation, the estimates, and the θ/seed-target traces.
func sameTIRMResult(t *testing.T, a, b *TIRMResult) {
	t.Helper()
	sameAllocation(t, a.Alloc, b.Alloc)
	for i := range a.EstRevenue {
		if a.EstRevenue[i] != b.EstRevenue[i] {
			t.Errorf("ad %d est revenue %v vs %v", i, a.EstRevenue[i], b.EstRevenue[i])
		}
		if a.FinalTheta[i] != b.FinalTheta[i] {
			t.Errorf("ad %d θ %d vs %d", i, a.FinalTheta[i], b.FinalTheta[i])
		}
		if a.FinalSeedTarget[i] != b.FinalSeedTarget[i] {
			t.Errorf("ad %d seed target %d vs %d", i, a.FinalSeedTarget[i], b.FinalSeedTarget[i])
		}
	}
}

// sparseBackend is the local backend with every collection moved onto the
// sparse kernel after Open — the reference run the data-chosen kernels are
// compared against. A soft collection runs sparse already.
type sparseBackend struct{ localBackend }

func (b *sparseBackend) Open(ctx context.Context, ads, thetas []int, out []Coverage) (fresh int64, kernels [rrset.NumKernels]int, err error) {
	fresh, _, err = b.localBackend.Open(ctx, ads, thetas, out)
	for i := range ads {
		cs := out[i].(*covState)
		if cs.hard != nil {
			kernels[cs.hard.UseKernel(rrset.KernelSparse)]++
		} else {
			kernels[rrset.KernelSparse]++
		}
	}
	return fresh, kernels, err
}

// softKernelFixture is TestKernelRequestGolden's soft run as the build with
// a bitset weighted commit computed it: the seeds, the bits of every
// revenue estimate, and the final θ. The soft commit has one kernel now,
// the sparse walk, and must reproduce those bits exactly.
var softKernelFixture = struct {
	seeds   [][]int32
	revenue []uint64
	theta   []int
}{
	seeds:   [][]int32{{13}, {13, 43, 19, 27, 18, 0, 23}, {27, 19, 43, 18}},
	revenue: []uint64{0x40038ec26662ca8c, 0x401c16d625bf2d70, 0x40029a826df4c022},
	theta:   []int{40000, 40000, 40000},
}

// TestKernelRequestGolden pins the cross-kernel determinism contract at the
// request level. The instance is dense enough (n ≤ 64, so every set holds
// at least n/64 members) that the density rule puts every hard-coverage ad
// on the bitset kernel; the same request with every collection held on
// sparse must produce byte-identical allocations and estimates — the
// kernel changes cost, never results. A soft-coverage collection always
// runs sparse, and its dense run must match softKernelFixture bit for bit.
// The fixture was computed with one sample per ad, so each ad draws from its
// own copy of the instance's vector.
func TestKernelRequestGolden(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		opts   TIRMOptions
		kernel rrset.KernelID // the kernel every ad runs on by default
	}{
		{"hard", TIRMOptions{MinTheta: 6000, MaxTheta: 40000}, rrset.KernelBitset},
		{"soft", TIRMOptions{MinTheta: 6000, MaxTheta: 40000, SoftCoverage: true}, rrset.KernelSparse},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			inst := ownVectors(randomInstance(31, 50, 200, 3, 2, 0.01))
			idx, err := BuildIndex(inst, 11, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Opts: cfg.opts}
			chosen, err := AllocateFromIndex(idx, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := chosen.KernelCounts[cfg.kernel]; got != len(inst.Ads) {
				t.Errorf("dense instance: KernelCounts[%v] = %d, want %d", cfg.kernel, got, len(inst.Ads))
			}
			if cfg.opts.SoftCoverage {
				want := softKernelFixture
				for i := range inst.Ads {
					if !slices.Equal(chosen.Alloc.Seeds[i], want.seeds[i]) {
						t.Errorf("ad %d seeds %v, fixture %v", i, chosen.Alloc.Seeds[i], want.seeds[i])
					}
					if got := math.Float64bits(chosen.EstRevenue[i]); got != want.revenue[i] {
						t.Errorf("ad %d est revenue bits %#x, fixture %#x", i, got, want.revenue[i])
					}
					if chosen.FinalTheta[i] != want.theta[i] {
						t.Errorf("ad %d θ %d, fixture %d", i, chosen.FinalTheta[i], want.theta[i])
					}
				}
			}
			pool := req.workspacePool()
			ws := pool.get()
			defer pool.put(ws)
			be := &sparseBackend{localBackend{ep: idx.curr.Load(), ws: ws, soft: cfg.opts.SoftCoverage}}
			sparse, err := ws.run(context.Background(), inst, be, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := sparse.KernelCounts[rrset.KernelSparse]; got != len(inst.Ads) {
				t.Errorf("reference run: KernelCounts[sparse] = %d, want %d", got, len(inst.Ads))
			}
			sameTIRMResult(t, sparse, chosen)
		})
	}
}

// TestAllocateBatchMatchesSequential pins the batch contract: every item of
// a mixed batch — different budgets, ad subsets, options, and one
// deliberately bad request — must return exactly what the sequential
// AllocateFromIndex call with the same request returns, and the bad item
// must fail alone without poisoning its siblings.
func TestAllocateBatchMatchesSequential(t *testing.T) {
	inst := randomInstance(60, 50, 200, 3, 2, 0)
	opts := TIRMOptions{MinTheta: 6000, MaxTheta: 40000}
	idx, err := BuildIndex(inst, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.02
	reqs := []Request{
		{Opts: opts},
		{Opts: opts, Budgets: []float64{1, 2, 3}},
		{Opts: opts, Ads: []int{0, 2}},
		{Opts: opts, Ads: []int{0, 3}}, // ad index out of range: must fail alone
		{Opts: opts, Lambda: &lambda},
		{Opts: TIRMOptions{MinTheta: 6000, MaxTheta: 40000, SoftCoverage: true}},
		{Opts: opts, Kappa: ConstKappa(1)},
	}
	want := make([]BatchResult, len(reqs))
	for i := range reqs {
		res, err := AllocateFromIndex(idx, reqs[i])
		want[i] = BatchResult{Res: res, Err: err}
	}
	got := AllocateBatch(idx, reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for i := range got {
		if (got[i].Err != nil) != (want[i].Err != nil) {
			t.Fatalf("item %d: batch err %v vs sequential err %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		sameTIRMResult(t, want[i].Res, got[i].Res)
	}
	if got[3].Err == nil {
		t.Error("bad request in slot 3 did not fail")
	}
	for i, r := range got {
		if i != 3 && r.Err != nil {
			t.Errorf("sibling item %d poisoned by bad request: %v", i, r.Err)
		}
	}
	if out := AllocateBatch(idx, nil); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestAllocateBatchPinsEpoch runs batches while the campaign set churns
// underneath: every item of one batch must observe the same epoch, so all
// results within a batch have one consistent ad count and identical
// requests yield identical allocations.
func TestAllocateBatchPinsEpoch(t *testing.T) {
	inst := randomInstance(77, 40, 160, 3, 2, 0)
	opts := TIRMOptions{MinTheta: 1024, MaxTheta: 4096}
	idx, err := BuildIndex(inst, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			extra := inst.Ads[i%len(inst.Ads)]
			extra.Name = "churn"
			if _, err := idx.AddAd(extra, opts); err != nil {
				t.Errorf("concurrent AddAd: %v", err)
				return
			}
			if err := idx.RemoveAd(idx.NumAds() - 1); err != nil {
				t.Errorf("concurrent RemoveAd: %v", err)
				return
			}
		}
	}()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Opts: opts}
	}
	for round := 0; round < 4; round++ {
		out := AllocateBatch(idx, reqs)
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("round %d item %d: %v", round, i, r.Err)
			}
			if len(r.Res.Alloc.Seeds) != len(out[0].Res.Alloc.Seeds) {
				t.Fatalf("round %d: item %d saw %d ads, item 0 saw %d — epoch not pinned",
					round, i, len(r.Res.Alloc.Seeds), len(out[0].Res.Alloc.Seeds))
			}
			sameTIRMResult(t, out[0].Res, r.Res)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAllocateBatchStaleEpoch: an item pinned to a bygone epoch fails with
// ErrStaleEpoch exactly as it would alone, while current-epoch siblings in
// the same batch succeed.
func TestAllocateBatchStaleEpoch(t *testing.T) {
	inst := randomInstance(60, 50, 200, 3, 2, 0)
	opts := TIRMOptions{MinTheta: 1024, MaxTheta: 4096}
	idx, err := BuildIndex(inst, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := idx.Epoch()
	extra := inst.Ads[0]
	extra.Name = "late"
	if _, err := idx.AddAd(extra, opts); err != nil {
		t.Fatal(err)
	}
	out := AllocateBatch(idx, []Request{
		{Opts: opts, Epoch: old},
		{Opts: opts},
		{Opts: opts, Epoch: idx.Epoch()},
	})
	if !errors.Is(out[0].Err, ErrStaleEpoch) {
		t.Errorf("stale item: err = %v, want ErrStaleEpoch", out[0].Err)
	}
	for i := 1; i < 3; i++ {
		if out[i].Err != nil {
			t.Errorf("current-epoch item %d failed: %v", i, out[i].Err)
		}
	}
}

// askCtx is a context that cancels itself once its error has been asked for
// more than after times. Selection asks once before each item and once
// before each round, so a count taken from one run places the cancellation
// at any item or round boundary of a later one.
type askCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int32
	asked  atomic.Int32
}

func newAskCtx(after int32) *askCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &askCtx{Context: ctx, cancel: cancel, after: after}
}

func (c *askCtx) Err() error {
	if c.asked.Add(1) > c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAllocateBatchContextCancels runs a batch on one worker, so items run
// in order, and cancels it once the first item has finished: that item
// returns what it returns alone, and the rest fail with context.Canceled —
// before starting, or, when the cancellation lands after the second item's
// start, before that item's next round.
func TestAllocateBatchContextCancels(t *testing.T) {
	defer rrset.SetMaxWorkers(0)
	rrset.SetMaxWorkers(1)
	inst := randomInstance(60, 50, 200, 3, 2, 0)
	opts := TIRMOptions{MinTheta: 6000, MaxTheta: 40000}
	idx, err := BuildIndex(inst, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Opts: opts}, {Opts: opts, Budgets: []float64{1, 2, 3}}, {Opts: opts}}
	want, err := AllocateFromIndex(idx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	dry := newAskCtx(math.MaxInt32)
	if out := AllocateBatchContext(dry, idx, reqs[:1]); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	first := dry.asked.Load()
	for _, tc := range []struct {
		name  string
		after int32
	}{{"before the second item", first}, {"inside the second item", first + 1}} {
		out := AllocateBatchContext(newAskCtx(tc.after), idx, reqs)
		if out[0].Err != nil {
			t.Fatalf("%s: first item failed: %v", tc.name, out[0].Err)
		}
		sameTIRMResult(t, want, out[0].Res)
		for i := 1; i < len(out); i++ {
			if !errors.Is(out[i].Err, context.Canceled) || out[i].Res != nil {
				t.Errorf("%s: item %d = (%v, %v), want context.Canceled", tc.name, i, out[i].Res, out[i].Err)
			}
		}
	}
}
