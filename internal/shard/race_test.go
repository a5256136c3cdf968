package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestCoordinatorConcurrentAllocate exercises the coordinator under
// concurrent allocations interleaved with campaign mutations (run with
// -race in CI): every successful allocation must be internally consistent,
// and races with mutations must surface as clean core.ErrStaleEpoch
// failures, never as drift or corruption.
func TestCoordinatorConcurrentAllocate(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	ctx := context.Background()
	coord, _, err := NewLocalCluster(inst, 8, 3, 2, Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := coord.Allocate(ctx, core.Request{Opts: opts}); err != nil &&
					!errors.Is(err, core.ErrStaleEpoch) {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := coord.AddAdBase(ctx, 8, opts); err != nil {
			errc <- err
			return
		}
		if err := coord.RemoveAd(ctx, 0); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// After the dust settles, the cluster must still agree with a fresh
	// single-node index over the same mutation history.
	epoch, ci := coord.EpochInst()
	if epoch != 3 {
		t.Fatalf("epoch %d after two mutations, want 3", epoch)
	}
	res, err := coord.Allocate(ctx, core.Request{Opts: opts, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alloc.Seeds) != len(ci.Ads) {
		t.Fatalf("allocation covers %d ads, campaign has %d", len(res.Alloc.Seeds), len(ci.Ads))
	}
}

// TestCoordinatorConcurrentAllocateReplicaDeath is the R = 2 form of
// TestCoordinatorConcurrentAllocate: replica 0 of slot 0 dies — every call
// from its dieAt-th on fails — while four goroutines allocate and a fifth
// mutates the campaign. Each allocation pins the epoch it read; a success
// must equal the single node at that epoch (accounting aside), and a
// failure must be a stale epoch. A run in flight on the dead replica either
// meets its death or, once the slot prefers replica 1, meets ErrUnknownRun
// there — and re-runs either way.
func TestCoordinatorConcurrentAllocateReplicaDeath(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	ctx := context.Background()
	const seed, dieAt = 3, 120

	// The single node through the same mutation history, one result per epoch.
	base := *inst
	base.Ads = append([]core.Ad(nil), inst.Ads[:8]...)
	idx, err := core.BuildIndex(&base, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*core.TIRMResult{}
	insts := map[uint64]*core.Instance{}
	for step := 0; ; step++ {
		res, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		want[idx.Epoch()], insts[idx.Epoch()] = res, idx.Inst()
		if step == 0 {
			_, err = idx.AddAd(inst.Ads[8], opts)
		} else if step == 1 {
			err = idx.RemoveAd(0)
		} else {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var dead *FaultClient
	var unknownRuns atomic.Int64
	coord, sets, _, err := NewReplicaCluster(inst, 8, seed, 2, 2, Config{Verify: true}, func(slot, rep int, cl Client) Client {
		switch {
		case slot == 0 && rep == 0:
			dead = NewFaultClient(cl, 1, FaultRule{Op: "*", From: dieAt, Kind: FaultError})
			return dead
		case slot == 0:
			c := new(intercepted)
			c.wrap(cl, func(ctx context.Context, rc rpcCall) error {
				err := rc.invoke(ctx)
				if errors.Is(err, ErrUnknownRun) {
					unknownRuns.Add(1)
				}
				return err
			})
			return c
		}
		return cl
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}

	type result struct {
		epoch uint64
		res   *core.TIRMResult
	}
	var mu sync.Mutex
	var results []result
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				epoch := coord.Epoch()
				res, err := coord.Allocate(ctx, core.Request{Opts: opts, Epoch: epoch})
				switch {
				case err == nil:
					mu.Lock()
					results = append(results, result{epoch, res})
					mu.Unlock()
				case !errors.Is(err, core.ErrStaleEpoch):
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := coord.AddAdBase(ctx, 8, opts); err != nil {
			errc <- err
			return
		}
		if err := coord.RemoveAd(ctx, 0); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	epoch := coord.Epoch()
	if epoch != 3 {
		t.Fatalf("epoch %d after two mutations, want 3", epoch)
	}
	res, err := coord.Allocate(ctx, core.Request{Opts: opts, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, result{epoch, res})
	for i, r := range results {
		req := core.Request{Opts: opts, Epoch: r.epoch}
		mustEqualSemantic(t, fmt.Sprintf("allocation %d at epoch %d", i, r.epoch), insts[r.epoch], req, want[r.epoch], r.res)
	}
	if dead.Fired()[0] == 0 {
		t.Fatal("replica 0 of slot 0 never died: the test exercised nothing")
	}
	if n := sets[0].HealthyCount(); n != 1 {
		t.Fatalf("slot 0 has %d healthy replicas after replica 0 died, want 1", n)
	}
	t.Logf("%d allocations, %d runs met ErrUnknownRun on the surviving replica", len(results), unknownRuns.Load())
}
