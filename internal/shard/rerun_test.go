// Tests for the re-run rule: a run a replica loses is ended and run again
// from scratch under a fresh run id (Coordinator.Allocate), at most R + 1
// runs in all, and failures a re-run cannot help are returned at once.

package shard

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// callHook sees every call a cluster's replica client makes: it runs the
// call (rc.invoke), changes it, or fails it in the call's stead.
type callHook func(ctx context.Context, slot, rep int, s *Shard, rc rpcCall) error

// atCommit returns a hook that hands slot 0's k-th commit (from 1, over all
// its replicas) to f and passes every other call through.
func atCommit(k int, f func(ctx context.Context, s *Shard, rc rpcCall) error) callHook {
	var n atomic.Int64
	return func(ctx context.Context, slot, _ int, s *Shard, rc rpcCall) error {
		if slot == 0 && rc.op == opCommit && n.Add(1) == int64(k) {
			return f(ctx, s, rc)
		}
		return rc.invoke(ctx)
	}
}

// TestRerunRule pins which failures re-run a run and how often, counting
// the runs, the Starts slot 0 sees (every run starts once on each slot that
// owns one of its ads) and the failovers range 0 books. Every allocation is
// explained, and one that succeeds reports the single node's commit events,
// each once:
//   - a run the shard forgot (End before a commit, as a restart or the TTL
//     reaper would) re-runs once at R = 1, and so does a run whose slot's
//     preferred replica moved while it was in flight; both results are
//     semantically the single node's;
//   - drift, a stale epoch, a cancelled ctx and a request the loop refuses
//     never re-run;
//   - a run lost every time stops after R + 1 runs, and a range whose every
//     replica fails returns ErrPartitionUnavailable within them.
func TestRerunRule(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed = 42
	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := &explainRecorder{}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts, Explain: true, Observer: local})
	if err != nil {
		t.Fatal(err)
	}

	var sets []*ReplicaSet        // the cluster under test
	var cancel context.CancelFunc // the allocation's ctx
	cases := []struct {
		name      string
		r         int
		req       core.Request
		hook      callHook
		wantErr   func(error) bool // nil: the allocation succeeds
		starts    int
		failovers uint64
	}{
		{
			name: "forgotten run", r: 1, req: core.Request{Opts: opts},
			hook: atCommit(2, func(ctx context.Context, s *Shard, rc rpcCall) error {
				s.End(rc.req.(*CommitRequest).RunID)
				return rc.invoke(ctx)
			}),
			starts: 2, failovers: 1,
		},
		{
			name: "preference moved mid-run", r: 2, req: core.Request{Opts: opts},
			hook: atCommit(2, func(ctx context.Context, _ *Shard, rc rpcCall) error {
				sets[0].mark(0, ErrInjected)
				return rc.invoke(ctx)
			}),
			starts: 2, failovers: 1,
		},
		{
			name: "drift", r: 1, req: core.Request{Opts: opts},
			hook: atCommit(2, func(ctx context.Context, _ *Shard, rc rpcCall) error {
				err := rc.invoke(ctx)
				rc.reply.(*CommitReply).Delta = SparseCounts{}
				return err
			}),
			wantErr: func(err error) bool { return errors.Is(err, errDrift) },
			starts:  1,
		},
		{
			name: "stale epoch", r: 2, req: core.Request{Opts: opts},
			hook: atCommit(2, func(context.Context, *Shard, rpcCall) error {
				return ErrStaleEpoch
			}),
			wantErr: func(err error) bool { return errors.Is(err, ErrStaleEpoch) },
			starts:  1,
		},
		{
			name: "cancelled ctx", r: 2, req: core.Request{Opts: opts},
			hook: atCommit(2, func(context.Context, *Shard, rpcCall) error {
				cancel()
				return ErrUnknownRun // would re-run under a live ctx
			}),
			wantErr: func(err error) bool { return errors.Is(err, ErrUnknownRun) },
			starts:  1, failovers: 1,
		},
		{
			name: "refused request", r: 2, req: core.Request{Opts: opts, Budgets: []float64{1}},
			hook:    func(ctx context.Context, _, _ int, _ *Shard, rc rpcCall) error { return rc.invoke(ctx) },
			wantErr: func(err error) bool { return err != nil },
			starts:  0,
		},
		{
			name: "lost every run", r: 2, req: core.Request{Opts: opts},
			hook: func(ctx context.Context, slot, _ int, _ *Shard, rc rpcCall) error {
				if slot == 0 && rc.op == opCommit {
					return ErrUnknownRun
				}
				return rc.invoke(ctx)
			},
			wantErr: func(err error) bool { return errors.Is(err, ErrUnknownRun) },
			starts:  3, failovers: 3,
		},
		{
			name: "every replica fails", r: 2, req: core.Request{Opts: opts},
			hook: func(ctx context.Context, slot, _ int, _ *Shard, rc rpcCall) error {
				if slot == 0 && rc.op == opCommit {
					return ErrInjected
				}
				return rc.invoke(ctx)
			},
			wantErr: func(err error) bool { return errors.Is(err, ErrPartitionUnavailable) },
			starts:  2, failovers: 2,
		},
	}
	for _, tc := range cases {
		var starts atomic.Int64
		m := NewMetrics(obs.NewRegistry(), "test")
		coord, rs, _, err := NewReplicaCluster(inst, 0, seed, 2, tc.r, Config{Metrics: m}, func(slot, rep int, cl Client) Client {
			s := cl.(LocalClient).S
			c := new(intercepted)
			c.wrap(cl, func(ctx context.Context, rc rpcCall) error {
				if slot == 0 && rc.op == opStart {
					starts.Add(1)
				}
				return tc.hook(ctx, slot, rep, s, rc)
			})
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = rs
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		cluster := &explainRecorder{}
		req := tc.req
		req.Explain, req.Observer = true, cluster
		res, err := coord.Allocate(ctx, req)
		cancel()
		switch {
		case tc.wantErr == nil && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.wantErr == nil:
			mustEqualSemantic(t, tc.name, inst, req, want, res)
			if !reflect.DeepEqual(local.events, cluster.events) || cluster.calls != 1 {
				t.Fatalf("%s: explained %d commit events in %d reports, the single node %d in 1",
					tc.name, len(cluster.events), cluster.calls, len(local.events))
			}
		case !tc.wantErr(err):
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if got := int(coord.runSeq.Load()); got != max(tc.starts, 1) {
			t.Errorf("%s: %d runs, want %d", tc.name, got, max(tc.starts, 1))
		}
		if got := int(starts.Load()); got != tc.starts || got > tc.r+1 {
			t.Errorf("%s: slot 0 saw %d Starts, want %d (R = %d)", tc.name, got, tc.starts, tc.r)
		}
		if got := m.failovers.With("0").Value(); got != tc.failovers {
			t.Errorf("%s: range 0 booked %d failovers, want %d", tc.name, got, tc.failovers)
		}
	}
}
