// Tests for the run pools: a warm run allocates no per-run coverage state,
// a parked run state pins nothing of the cluster it served, and a run
// retired under an op fails the op instead of lending it recycled state.

package shard

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/rrset"
)

// warmAllocsCeiling bounds the objects one warm K = 1 allocation over
// LocalClient may allocate. With the shard's run states and the
// coordinator's backends pooled it measures 59; a shard that builds its
// collections and replies afresh adds about 300, a coordinator that builds
// its mirrors and reply rows afresh about 250.
const warmAllocsCeiling = 120

// TestShardedWarmAllocs pins what the pools buy: a warm allocation builds
// no shard collection, no counter mirror and no reply buffer of its own.
func TestShardedWarmAllocs(t *testing.T) {
	ctx := context.Background()
	opts := testOpts()
	coord, _, err := NewLocalCluster(testInstance(), 0, 42, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	req := core.Request{Opts: opts}
	if _, err := coord.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := coord.Allocate(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm run (ceiling %d)", got, warmAllocsCeiling)
	if !raceDetectorOn && got > warmAllocsCeiling {
		// The race runtime drops sync.Pool puts at random.
		t.Fatalf("a warm sharded run allocates %.0f objects, ceiling %d: a run pool is bypassed", got, warmAllocsCeiling)
	}
}

// TestParkedRunStatePinsNoIndex: what a run parks for the next one — the
// shard's run state (workspaces, scratch, reply buffers) and the
// coordinator's backend (counter mirrors, request and reply rows) — holds
// nothing of the cluster it served. Kept alone, it lets the shard's index,
// and the inverted indexes the run's collections were opened over, die in
// one collection.
func TestParkedRunStatePinsNoIndex(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st, be, idx, invs := parkedRun(t)
	runtime.GC()
	if idx.Value() != nil {
		t.Fatal("a parked run state pins the index of the shard it ran on")
	}
	for x, inv := range invs {
		if inv.Value() != nil {
			t.Fatalf("a parked run state pins the inverted index of the run's ad %d", x)
		}
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(be)
}

// parkedRun runs one allocation on a fresh one-shard cluster and returns
// the shard's run state and the coordinator's backend as the run's end
// parked them, with weak pointers to the shard's index and to the inverted
// index of each of the run's ads.
func parkedRun(t *testing.T) (*runState, *clusterBackend, weak.Pointer[core.Index], []weak.Pointer[rrset.Inverted]) {
	ctx := context.Background()
	opts := testOpts()
	coord, shards, err := NewLocalCluster(testInstance(), 0, 42, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	m := coord.current()
	be := coord.newBackend(m)
	if _, err := core.AllocateOver(ctx, m.inst, be, core.Request{Opts: opts}); err != nil {
		t.Fatal(err)
	}
	st := shards[0].runs[be.runID].st
	be.end()
	if st.live != 0 || be.c != nil || be.m != nil {
		t.Fatal("the run's end parked live state")
	}
	ep, start := shards[0].Index().CurrentEpoch(), be.startReqs[0]
	var invs []weak.Pointer[rrset.Inverted]
	for x, j := range start.Ads {
		_, inv, _ := ep.AdView(j, start.Thetas[x])
		invs = append(invs, weak.Make(inv))
	}
	return st, be, weak.Make(shards[0].Index()), invs
}

// TestRetiredRunFailsItsOps pins the teardown order pooled state needs. A
// commit finds its run and then blocks, in the shard's op hook, before it
// takes the run's lock; meanwhile End, a Start that replaces the run id or
// the reaper retires the run and parks its state, which the next Start
// takes. Woken, the commit must fail with ErrUnknownRun — never panic, and
// never apply to the state the pool handed on — and a commit on the
// replacing run must answer the bytes an undisturbed run answers.
func TestRetiredRunFailsItsOps(t *testing.T) {
	ctx := context.Background()
	opts := testOpts()
	coord, shards, err := NewLocalCluster(testInstance(), 0, 42, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	s := shards[0]
	start := func(id string) StartRequest {
		return StartRequest{RunID: id, Epoch: s.Info().Epoch, Ads: []int{0, 1}, Thetas: []int{2000, 2000}}
	}
	commit := func(id string) ([]byte, error) {
		reply, err := s.Commit(CommitRequest{RunID: id, Ad: 1, Node: 7, Seq: 1})
		return reply.appendWire(nil), err
	}
	if _, err := s.Start(start("ref")); err != nil {
		t.Fatal(err)
	}
	want, err := commit("ref")
	if err != nil {
		t.Fatal(err)
	}
	s.End("ref")

	retirers := []struct {
		name   string
		retire func(r *shardRun) error
		live   bool // the run id is open again afterwards
	}{
		{"end", func(*shardRun) error { s.End("r"); return nil }, false},
		{"replacing start", func(*shardRun) error {
			_, err := s.Start(start("r"))
			return err
		}, true},
		{"reaper", func(r *shardRun) error {
			r.lastUsed.Store(0)
			_, err := s.Start(start("other"))
			s.End("other")
			return err
		}, false},
	}
	for _, tc := range retirers {
		if _, err := s.Start(start("r")); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		r := s.runs["r"]
		s.mu.Unlock()
		entered, resume := make(chan struct{}), make(chan struct{})
		s.opHook = func() {
			close(entered)
			<-resume
		}
		errc := make(chan error, 1)
		go func() {
			_, err := commit("r")
			errc <- err
		}()
		<-entered
		s.opHook = nil
		if err := tc.retire(r); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		close(resume)
		if err := <-errc; !errors.Is(err, ErrUnknownRun) {
			t.Fatalf("%s: a commit on the retired run returned %v, want ErrUnknownRun", tc.name, err)
		}
		got, err := commit("r")
		switch {
		case !tc.live && !errors.Is(err, ErrUnknownRun):
			t.Fatalf("%s: a commit after the run's retirement returned %v, want ErrUnknownRun", tc.name, err)
		case tc.live && (err != nil || string(got) != string(want)):
			t.Fatalf("%s: the replacing run answered %x (err %v), an undisturbed one %x", tc.name, got, err, want)
		}
		s.End("r")
	}
	if n := s.Info().OpenRuns; n != 0 {
		t.Fatalf("%d runs left open", n)
	}
}
