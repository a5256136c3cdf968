package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/leakcheck"
	"repro/internal/rrset"
)

// TestShardedKernelGolden pins cross-kernel determinism through the
// distributed path. On the Fig. 1 toy (n ≤ 64, so the density rule puts
// every ad on the bitset kernel) the coordinator at K ∈ {1, 4}, whose
// shards commit through the bitset delta sweep, must reproduce the
// single-node allocation byte for byte — which core's
// TestKernelRequestGolden in turn pins to the all-sparse run. Kernels
// change only local sweep cost; the protocol's integers are
// kernel-independent.
func TestShardedKernelGolden(t *testing.T) {
	inst := gen.Fig1Instance(0)
	opts := testOpts()
	const seed = 42
	ctx := context.Background()

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got := want.KernelCounts[rrset.KernelBitset]; got != len(inst.Ads) {
		t.Fatalf("single node on the dense toy: KernelCounts = %v, want every ad on bitset", want.KernelCounts)
	}

	for _, k := range []int{1, 4} {
		coord, _, err := NewLocalCluster(inst, 0, seed, k, Config{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, opts); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Allocate(ctx, core.Request{Opts: opts})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		mustEqualResults(t, fmt.Sprintf("K=%d", k), inst, core.Request{Opts: opts}, want, got)
		// Each ad is one collection, on its owner, as on the single node.
		if got.KernelCounts != want.KernelCounts {
			t.Errorf("K=%d: KernelCounts = %v, single node %v", k, got.KernelCounts, want.KernelCounts)
		}
	}
}

// TestShardedBatchGolden pins the distributed batch contract at K ∈ {1, 4}:
// the items of a mixed batch, run concurrently through Coordinator.Allocate
// under a bounded worker budget as POST /allocate/batch runs them, must
// each return exactly what the sequential single-node AllocateFromIndex
// returns for the same request, and a bad item fails alone. It runs at the
// machine's GOMAXPROCS and at 1 and 2, where the batch has more items than
// workers.
func TestShardedBatchGolden(t *testing.T) {
	for _, procs := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			shardedBatchGolden(t)
		})
	}
}

func shardedBatchGolden(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed = 42
	ctx := context.Background()

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.25
	reqs := []core.Request{
		{Opts: opts},
		{Opts: opts, Ads: []int{0, 2, 4, 6, 8}},
		{Opts: opts, Ads: []int{0, 10}}, // ad index out of range: must fail alone
		{Opts: opts, Budgets: []float64{9, 8, 7, 6, 5, 9, 8, 7, 6, 5}, Lambda: &lambda},
	}
	want := make([]core.BatchResult, len(reqs))
	for i := range reqs {
		want[i].Res, want[i].Err = core.AllocateFromIndex(idx, reqs[i])
	}

	for _, k := range []int{1, 4} {
		coord, _, err := NewLocalCluster(inst, 0, seed, k, Config{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, opts); err != nil {
			t.Fatal(err)
		}
		got := make([]core.BatchResult, len(reqs))
		rrset.ParallelFor(len(reqs), 2, func(i int) {
			got[i].Res, got[i].Err = coord.Allocate(ctx, reqs[i])
		})
		for i := range got {
			if (got[i].Err != nil) != (want[i].Err != nil) {
				t.Fatalf("K=%d item %d: batch err %v vs single-node err %v", k, i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			mustEqualResults(t, fmt.Sprintf("K=%d item %d", k, i), inst, reqs[i], want[i].Res, got[i].Res)
		}
		if got[2].Err == nil {
			t.Errorf("K=%d: bad request in slot 2 did not fail", k)
		}
	}
}

// TestShardedAllocateStaleEpoch: an allocation pinned to a bygone cluster
// epoch fails with core.ErrStaleEpoch, and one at the current epoch
// succeeds.
func TestShardedAllocateStaleEpoch(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	ctx := context.Background()
	coord, _, err := NewLocalCluster(inst, 6, 5, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	old := coord.Epoch()
	if _, err := coord.AddAdBase(ctx, 6, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Allocate(ctx, core.Request{Opts: opts, Epoch: old}); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("stale request: err = %v, want core.ErrStaleEpoch", err)
	}
	if _, err := coord.Allocate(ctx, core.Request{Opts: opts, Epoch: coord.Epoch()}); err != nil {
		t.Errorf("current-epoch request failed: %v", err)
	}
}

// cancelAtCommit cancels its context at the run's nth committed seed.
type cancelAtCommit struct {
	n, commits int
	cancel     context.CancelFunc
}

func (o *cancelAtCommit) ObserveAllocation(core.PhaseTimings) {}
func (o *cancelAtCommit) ObserveCommit(core.CommitEvent) {
	if o.commits++; o.commits == o.n {
		o.cancel()
	}
}

// TestShardedAllocateCancelledMidRun: LocalClient ignores its context, so
// it is the greedy loop that must stop a cancelled allocation — at the next
// round — and the coordinator that closes the run on every shard.
func TestShardedAllocateCancelledMidRun(t *testing.T) {
	opts := testOpts()
	coord, shards, err := NewLocalCluster(testInstance(), 0, 42, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := &cancelAtCommit{n: 3, cancel: cancel}
	_, err = coord.Allocate(ctx, core.Request{Opts: opts, Observer: stop, Explain: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("allocation cancelled at commit %d: err = %v, want context.Canceled", stop.n, err)
	}
	if stop.commits != stop.n {
		t.Fatalf("the run committed %d seeds, cancelled at the %dth", stop.commits, stop.n)
	}
	for i, s := range shards {
		if open := s.Info().OpenRuns; open != 0 {
			t.Errorf("shard %d holds %d open runs after the cancelled allocation", i, open)
		}
	}
}

// holdFirst delays cl's first op o by d, deaf to its context, as a shard
// still working on an op its caller has given up on would be.
func holdFirst(cl Client, o op, d time.Duration) Client {
	var held atomic.Bool
	c := new(intercepted)
	c.wrap(cl, func(ctx context.Context, rc rpcCall) error {
		if rc.op == o && held.CompareAndSwap(false, true) {
			time.Sleep(d)
		}
		return rc.invoke(ctx)
	})
	return c
}

// TestGatherLeavesNoGoroutine: a fan-out returns only once every shard has
// answered, so an allocation that completes, one whose start fails on
// shard 1 while shard 0's is still in flight, and one cancelled mid-run all
// leave the goroutine count where it was. Shard 0's first start is held
// longer than leakcheck waits: a gather that returned on shard 1's error
// would leave its goroutine behind.
func TestGatherLeavesNoGoroutine(t *testing.T) {
	inst, opts := testInstance(), testOpts()
	req := core.Request{Opts: opts}
	for _, k := range []int{2, 4} {
		coord, _, err := NewLocalCluster(inst, 0, 42, k, Config{})
		if err != nil {
			t.Fatal(err)
		}
		failing, _, _, err := NewReplicaCluster(inst, 0, 42, k, 1, Config{}, func(slot, _ int, cl Client) Client {
			switch slot {
			case 0:
				return holdFirst(cl, opStart, time.Second)
			case 1:
				// Failing after a beat lets shard 0's start get under way.
				return NewFaultClient(cl, 1, FaultRule{Op: "start", Kind: FaultTimeout, Delay: 100 * time.Millisecond})
			}
			return cl
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Coordinator{coord, failing} {
			if err := c.Warm(context.Background(), opts); err != nil {
				t.Fatal(err)
			}
		}
		runs := []struct {
			name string
			run  func() error
		}{
			{"completed", func() error {
				_, err := coord.Allocate(context.Background(), req)
				return err
			}},
			{"start failed on shard 1", func() error {
				if _, err := failing.Allocate(context.Background(), req); !errors.Is(err, ErrPartitionUnavailable) {
					return fmt.Errorf("err = %v, want ErrPartitionUnavailable", err)
				}
				return nil
			}},
			{"cancelled", func() error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := coord.Allocate(ctx, core.Request{Opts: opts, Observer: &cancelAtCommit{n: 3, cancel: cancel}, Explain: true})
				if !errors.Is(err, context.Canceled) {
					return fmt.Errorf("err = %v, want context.Canceled", err)
				}
				return nil
			}},
		}
		for _, r := range runs {
			t.Run(fmt.Sprintf("K=%d/%s", k, r.name), func(t *testing.T) {
				leakcheck.Check(t)
				if err := r.run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
