// Tests for replica sets and deterministic fault injection: allocations
// under scripted fault plans stay byte-identical to fault-free single-node
// runs (the tentpole invariant), the sequence guard makes retried run ops
// level-triggered, a fully dead range surfaces ErrPartitionUnavailable
// instead of hanging, and revived replicas are walked forward through
// missed mutations before rejoining.

package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// mustEqualSemantic is mustEqualResults minus the sampling accounting: a
// re-run legitimately re-samples on the replica that serves it, so
// TotalSetsSampled/SetsReused are replica-local bookkeeping while seeds,
// revenues, θ evolution, and iteration count must not move by a bit. Both
// results must pass core.CheckAllocation for req over inst.
func mustEqualSemantic(t *testing.T, label string, inst *core.Instance, req core.Request, want, got *core.TIRMResult) {
	t.Helper()
	for side, res := range map[string]*core.TIRMResult{"want": want, "got": got} {
		if err := core.CheckAllocation(inst, req, res); err != nil {
			t.Fatalf("%s: %s fails the allocation check: %v", label, side, err)
		}
	}
	if !reflect.DeepEqual(want.Alloc.Seeds, got.Alloc.Seeds) {
		t.Fatalf("%s: seeds diverged\n want %v\n  got %v", label, want.Alloc.Seeds, got.Alloc.Seeds)
	}
	if !reflect.DeepEqual(want.EstRevenue, got.EstRevenue) {
		t.Fatalf("%s: revenues diverged\n want %v\n  got %v", label, want.EstRevenue, got.EstRevenue)
	}
	if !reflect.DeepEqual(want.FinalTheta, got.FinalTheta) {
		t.Fatalf("%s: θ diverged\n want %v\n  got %v", label, want.FinalTheta, got.FinalTheta)
	}
	if !reflect.DeepEqual(want.FinalSeedTarget, got.FinalSeedTarget) {
		t.Fatalf("%s: seed targets diverged\n want %v\n  got %v", label, want.FinalSeedTarget, got.FinalSeedTarget)
	}
	if want.Iterations != got.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, want.Iterations, got.Iterations)
	}
}

// TestReplicaClusterGoldenNoFaults pins the baseline: a replicated cluster
// with nothing injected matches the single node exactly, accounting
// included (no failovers means no divergence at all).
func TestReplicaClusterGoldenNoFaults(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed = 42

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		coord, sets, _, err := NewReplicaCluster(inst, 0, seed, k, 2, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Allocate(context.Background(), core.Request{Opts: opts})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		mustEqualResults(t, "replicated no-fault", inst, core.Request{Opts: opts}, want, got)
		for slot, set := range sets {
			if set.HealthyCount() != 2 {
				t.Fatalf("K=%d slot %d: %d healthy replicas, want 2", k, slot, set.HealthyCount())
			}
		}
	}
}

// TestReplicaFaultGolden is the tentpole acceptance pin: a K ∈ {2, 4}
// cluster with R = 2 replicas per range, driven through a scripted fault
// plan — dead connections, lost replies after the op applied, delays, and
// deadline blackholes on specific calls of specific replicas — produces an
// allocation semantically byte-identical to the fault-free single-node
// run. Replica 0 of every range is wrapped directly under the ReplicaSet
// (no retry layer: a failed run op fails its run, which the coordinator
// re-runs); the plan fires on errors, drop-after-send, a delay, and a
// bounded timeout.
func TestReplicaFaultGolden(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed = 42

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 4} {
		// Only the preferred replica of each range faults, finitely, so the
		// secondary is always a clean failover target (there is no retry
		// layer in this variant — a single op must find a working replica).
		var faults []*FaultClient
		wrap := func(slot, rep int, cl Client) Client {
			if rep != 0 {
				return cl
			}
			var rules []FaultRule
			switch slot {
			case 0:
				// Loses a commit reply after applying it — the run is re-run
				// on replica 1 — then would refuse two gains reads.
				rules = []FaultRule{
					{Op: "commit", From: 1, Count: 1, Kind: FaultDropAfterSend},
					{Op: "gains", From: 3, Count: 2, Kind: FaultError},
				}
			case 1:
				// Answers one gains slowly, then blackholes a pilot for 2ms.
				rules = []FaultRule{
					{Op: "gains", From: 2, Count: 1, Kind: FaultDelay, Delay: time.Millisecond},
					{Op: "pilot", From: 1, Count: 1, Kind: FaultTimeout, Delay: 2 * time.Millisecond},
				}
			case 2:
				rules = []FaultRule{{Op: "credit", From: 0, Count: 1, Kind: FaultError}}
			case 3:
				rules = []FaultRule{{Op: "start", From: 1, Count: 1, Kind: FaultError}}
			}
			fc := NewFaultClient(cl, uint64(1000+slot*10+rep), rules...)
			faults = append(faults, fc)
			return fc
		}
		coord, _, _, err := NewReplicaCluster(inst, 0, seed, k, 2, Config{}, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Allocate(context.Background(), core.Request{Opts: opts})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		mustEqualSemantic(t, "faulted", inst, core.Request{Opts: opts}, want, got)
		fired := 0
		for _, fc := range faults {
			for _, n := range fc.Fired() {
				fired += n
			}
		}
		if fired == 0 {
			t.Fatalf("K=%d: fault plan never fired — the test exercised nothing", k)
		}
	}
}

// TestReplicaDropAfterSendWithRetry pins the sequence guard end to end:
// with the retry layer under the replica layer, a lost commit reply is
// replayed against the same replica, the shard answers from its cached
// reply instead of double-applying, and the allocation still matches the
// single node bit for bit — including sampling accounting, because no
// failover ever happens.
func TestReplicaDropAfterSendWithRetry(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed, k = 42, 2

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	var drops []*FaultClient
	wrap := func(slot, rep int, cl Client) Client {
		if rep != 0 {
			return cl
		}
		fc := NewFaultClient(cl, uint64(slot+1),
			FaultRule{Op: "commit", From: 1, Count: 2, Kind: FaultDropAfterSend},
			FaultRule{Op: "credit", From: 0, Count: 1, Kind: FaultDropAfterSend},
		)
		drops = append(drops, fc)
		return NewRetryClient(fc, RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Microsecond,
			MaxBackoff:  time.Microsecond,
		}, nil)
	}
	coord, sets, _, err := NewReplicaCluster(inst, 0, seed, k, 2, Config{}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Allocate(context.Background(), core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "drop-after-send with retry", inst, core.Request{Opts: opts}, want, got)
	fired := 0
	for _, fc := range drops {
		for _, n := range fc.Fired() {
			fired += n
		}
	}
	if fired == 0 {
		t.Fatal("no drop-after-send fault fired")
	}
	// Retries healed in place: the preferred replica never changed, so every
	// replica is still healthy.
	for slot, set := range sets {
		if set.HealthyCount() != 2 {
			t.Fatalf("slot %d: %d healthy, want 2", slot, set.HealthyCount())
		}
	}
}

// TestBareStackDropAfterSendWithRetry is the same lost-reply plan with no
// ReplicaSet in the stack: the coordinator speaks to
// RetryClient(FaultClient(LocalClient)) directly. The sequence numbers come
// from the coordinator's backend, so a retried commit, credit or grow is
// still answered from the shard's cache — a stack that sent unnumbered ops
// double-applied it and the run failed with a drift error. The second
// instance is dense enough, under a θ range wide enough, that θ grows
// mid-run and seeds are re-credited.
func TestBareStackDropAfterSendWithRetry(t *testing.T) {
	const k = 2
	ctx := context.Background()
	cases := []struct {
		name  string
		inst  *core.Instance
		seed  uint64
		opts  core.TIRMOptions
		grows bool
	}{
		{"flixster", testInstance(), 42, testOpts(), false},
		{"random", randomInstance(xrand.New(1000), 60, 480, 3, 2, 0.01), 7, core.TIRMOptions{Eps: 1, MinTheta: 256, MaxTheta: 20000}, true},
	}
	for _, tc := range cases {
		idx, err := core.BuildIndex(tc.inst, tc.seed, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.AllocateFromIndex(idx, core.Request{Opts: tc.opts})
		if err != nil {
			t.Fatal(err)
		}

		p, err := NewPartitioner(k)
		if err != nil {
			t.Fatal(err)
		}
		drops := make([]*FaultClient, k)
		clients := make([]Client, k)
		for slot := range clients {
			s, err := NewShard(tc.inst, 0, tc.seed, p.Range(slot))
			if err != nil {
				t.Fatal(err)
			}
			drops[slot] = NewFaultClient(LocalClient{S: s}, uint64(slot+1),
				FaultRule{Op: "commit", From: 1, Count: 2, Kind: FaultDropAfterSend},
				FaultRule{Op: "credit", From: 0, Count: 1, Kind: FaultDropAfterSend},
				FaultRule{Op: "grow", From: 0, Count: 1, Kind: FaultDropAfterSend},
			)
			clients[slot] = NewRetryClient(drops[slot], RetryPolicy{
				MaxAttempts: 3,
				BaseBackoff: time.Microsecond,
				MaxBackoff:  time.Microsecond,
			}, nil)
		}
		coord, err := NewCoordinator(ctx, clients, Config{Roster: tc.inst})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, tc.opts); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Allocate(ctx, core.Request{Opts: tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mustEqualResults(t, tc.name+": bare stack, drop-after-send with retry", tc.inst, core.Request{Opts: tc.opts}, want, got)
		for slot, fc := range drops {
			fired := fc.Fired()
			if fired[0] != 2 || tc.grows && (fired[1] != 1 || fired[2] != 1) {
				t.Fatalf("%s slot %d: commit, credit and grow drops fired %v times — the plan did not exercise what it scripts", tc.name, slot, fired)
			}
		}
	}
}

// TestShardSeqGuard unit-tests the level-triggered sequence window on a
// run's op log: first-time seqs apply, an exact replay of the last applied
// (same kind) answers without re-applying, a replay with a different op
// kind and any gap or rewind are ErrBadSeq — and so is a Seq that is not a
// sequence number (≤ 0), before and after the run has applied anything.
func TestShardSeqGuard(t *testing.T) {
	r := &shardRun{st: new(runState)}
	check := func(seq int64, kind op, wantReplay bool, wantErr bool) {
		t.Helper()
		replay, err := r.checkSeq(seq, kind)
		if (err != nil) != wantErr {
			t.Fatalf("checkSeq(%d, %s): err = %v, wantErr %v", seq, kind, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrBadSeq) {
			t.Fatalf("checkSeq(%d, %s): err %v is not ErrBadSeq", seq, kind, err)
		}
		if replay != wantReplay {
			t.Fatalf("checkSeq(%d, %s): replay = %v, want %v", seq, kind, replay, wantReplay)
		}
	}
	check(0, opCommit, false, true)  // unnumbered: no way past the guard
	check(-1, opCommit, false, true) // nor a negative one
	check(1, opCommit, false, false) // next in sequence
	r.storeCommit(1, opCommit, CommitReply{Covered: 7})
	check(1, opCommit, true, false)  // exact replay
	check(1, opCredit, false, true)  // replay with wrong kind
	check(3, opCommit, false, true)  // gap
	check(0, opGrow, false, true)    // unnumbered mid-run
	check(2, opCredit, false, false) // next applies
	r.lastSeq, r.lastKind = 2, opCredit
	check(1, opCommit, false, true) // rewind

	// The cached reply is not a copy: it stays in the reply buffer its op
	// wrote, and the ops after it write the other one, so writing the next
	// reply must not corrupt the replay answer.
	for seq := int64(3); seq <= 5; seq++ {
		buf := r.st.reply()
		if seq == 5 {
			buf.Nodes = append(buf.Nodes, 99)
			break
		}
		buf.Nodes, buf.Counts = append(buf.Nodes, int32(seq), 2), append(buf.Counts, 3, 4)
		r.storeCommit(seq, opCommit, CommitReply{Covered: 9, Delta: buf})
	}
	if r.lastCommit.Delta.Nodes[0] != 4 {
		t.Fatalf("cached commit reply %v was overwritten by the next op's reply", r.lastCommit.Delta)
	}
}

// TestStartReplacesOpenRun pins Start's level-trigger: re-sending a
// StartRequest for an already-open run id rebuilds the run instead of
// erroring, which is what makes a retried or replayed Start harmless.
func TestStartReplacesOpenRun(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	coord, _, shards, err := NewReplicaCluster(inst, 0, 42, 1, 1, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	s := shards[0]
	req := StartRequest{RunID: "run-a", Epoch: s.Info().Epoch, Ads: []int{0}, Thetas: []int{64}}
	if _, err := s.Start(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(req); err != nil {
		t.Fatalf("duplicate Start must replace, got %v", err)
	}
	if got := s.Info().OpenRuns; got != 1 {
		t.Fatalf("open runs = %d, want 1 (replace, not accumulate)", got)
	}
	s.End("run-a")
}

// TestPartitionUnavailable pins total-loss semantics: when every replica
// of one range fails, the allocation surfaces ErrPartitionUnavailable
// promptly (no hang), and other ranges' health is untouched.
func TestPartitionUnavailable(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed, k = 42, 2

	// Both replicas of range 0 refuse every selection op; Info stays alive
	// so construction succeeds (the failure is at op time, the hard case).
	wrap := func(slot, rep int, cl Client) Client {
		if slot != 0 {
			return cl
		}
		return NewFaultClient(cl, uint64(rep+1),
			FaultRule{Op: "pilot", Kind: FaultError},
			FaultRule{Op: "ensure", Kind: FaultError},
			FaultRule{Op: "start", Kind: FaultError},
		)
	}
	coord, sets, _, err := NewReplicaCluster(inst, 0, seed, k, 2, Config{}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Allocate(context.Background(), core.Request{Opts: opts})
	if !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("err = %v, want ErrPartitionUnavailable", err)
	}
	if sets[1].HealthyCount() != 2 {
		t.Fatalf("range 1 health collateral damage: %d healthy, want 2", sets[1].HealthyCount())
	}
}

// TestReplicaEndSkipsStaleReplica pins that only Probe returns a stale
// replica to the rotation. Replica 1 misses a mutation, so it sits unhealthy
// at the older epoch. An End that replica 0 fails must not reach replica 1,
// which stays out of the rotation until Probe walks it forward.
func TestReplicaEndSkipsStaleReplica(t *testing.T) {
	ctx := context.Background()
	var faults [2]*FaultClient
	_, sets, _, err := NewReplicaCluster(testInstance(), 6, 7, 1, 2, Config{}, func(_, rep int, cl Client) Client {
		rules := []FaultRule{{Op: "end", Kind: FaultError}}
		if rep == 1 {
			rules = []FaultRule{
				{Op: "addAd", Count: 1, Kind: FaultError},
				{Op: "end", Kind: FaultDelay}, // counts calls, passes them through
			}
		}
		faults[rep] = NewFaultClient(cl, uint64(rep+1), rules...)
		return faults[rep]
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := sets[0]
	info, err := rs.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.AddAd(ctx, AddAdRequest{Epoch: info.Epoch, Base: 6}); err != nil {
		t.Fatal(err)
	}
	if rs.HealthyCount() != 1 {
		t.Fatalf("healthy = %d after the missed mutation, want 1", rs.HealthyCount())
	}
	if err := rs.End(ctx, "run"); !errors.Is(err, ErrInjected) {
		t.Fatalf("End with its one healthy replica failing: err = %v, want ErrInjected", err)
	}
	if n := faults[1].Fired()[1]; n != 0 {
		t.Fatalf("stale replica received End %d times, want 0", n)
	}
	if rs.HealthyCount() != 1 {
		t.Fatalf("healthy = %d after End, want 1: the stale replica must stay out of the rotation", rs.HealthyCount())
	}
	for _, st := range rs.Probe(ctx) {
		if !st.Healthy {
			t.Fatalf("replica %d still unhealthy after probe: %v", st.Replica, st.Err)
		}
	}
}

// TestReplicaEndHealthyOnly pins End's contract: it reaches every healthy
// replica past a failing one, books no health, returns nil once any replica
// closed the run — or when no replica is healthy — and the last failure when
// every healthy replica failed.
func TestReplicaEndHealthyOnly(t *testing.T) {
	ctx := context.Background()
	var faults [2]*FaultClient
	_, sets, _, err := NewReplicaCluster(testInstance(), 0, 7, 1, 2, Config{}, func(_, rep int, cl Client) Client {
		kind := FaultError
		if rep == 1 {
			kind = FaultDelay // counts calls, passes them through
		}
		faults[rep] = NewFaultClient(cl, uint64(rep+1), FaultRule{Op: "end", Kind: kind})
		return faults[rep]
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := sets[0]
	if err := rs.End(ctx, "run"); err != nil {
		t.Fatalf("End with one healthy replica closing the run: %v", err)
	}
	if f0, f1 := faults[0].Fired()[0], faults[1].Fired()[0]; f0 != 1 || f1 != 1 {
		t.Fatalf("end reached replicas %d and %d times, want 1 and 1", f0, f1)
	}
	if rs.HealthyCount() != 2 {
		t.Fatalf("healthy = %d after a failed End, want 2 (End books no health)", rs.HealthyCount())
	}

	rs.mark(1, ErrInjected)
	if err := rs.End(ctx, "run"); !errors.Is(err, ErrInjected) {
		t.Fatalf("End with its one healthy replica failing: err = %v, want ErrInjected", err)
	}
	rs.mark(0, ErrInjected)
	if err := rs.End(ctx, "run"); err != nil {
		t.Fatalf("End with no healthy replica: %v, want nil", err)
	}
	if f0, f1 := faults[0].Fired()[0], faults[1].Fired()[0]; f0 != 2 || f1 != 1 {
		t.Fatalf("end reached replicas %d and %d times, want 2 and 1: unhealthy replicas are never asked", f0, f1)
	}
}

// TestReplicaSetRejectsDivergentReplica pins registration validation: two
// shards of the same range built from different seeds are different
// deterministic universes and must be refused at construction.
func TestReplicaSetRejectsDivergentReplica(t *testing.T) {
	inst := testInstance()
	p, err := NewPartitioner(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewShard(inst, 0, 42, p.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShard(inst, 0, 43, p.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicaSet(context.Background(), []Client{LocalClient{S: a}, LocalClient{S: b}}, ReplicaSetConfig{}); err == nil {
		t.Fatal("replica set accepted replicas with divergent seeds")
	}
	c, err := NewShard(inst, 0, 42, p.Range(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplicaSet(context.Background(), []Client{LocalClient{S: a}, LocalClient{S: c}}, ReplicaSetConfig{}); err == nil {
		t.Fatal("replica set accepted replicas serving different ranges")
	}
}

// TestReplicaMutationRevive pins the re-warm path: a replica that misses a
// campaign mutation is dropped from the rotation, and a Probe walks it
// forward through the logged mutation and returns it — after which the
// cluster still matches a single-node index with the identical history.
func TestReplicaMutationRevive(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed, k = 7, 2
	ctx := context.Background()

	// Single node: 6 initial ads, then activate ad 6.
	base := *inst
	base.Ads = append([]core.Ad(nil), inst.Ads[:6]...)
	idx, err := core.BuildIndex(&base, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddAd(inst.Ads[6], opts); err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	// Replica 1 of range 0 fails its first addAd broadcast.
	var dropper *FaultClient
	wrap := func(slot, rep int, cl Client) Client {
		if slot == 0 && rep == 1 {
			dropper = NewFaultClient(cl, 9, FaultRule{Op: "addAd", Count: 1, Kind: FaultError})
			return dropper
		}
		return cl
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	coord, sets, _, err := NewReplicaCluster(inst, 6, seed, k, 2, Config{Logf: logf}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAdBase(ctx, 6, opts); err != nil {
		t.Fatal(err)
	}
	if sets[0].HealthyCount() != 1 {
		t.Fatalf("range 0 healthy = %d, want 1 (replica 1 missed the mutation)", sets[0].HealthyCount())
	}
	if n := dropper.Fired()[0]; n != 1 {
		t.Fatalf("addAd fault fired %d times, want 1", n)
	}
	// The lagging replica is out of the rotation, so it has no say in the
	// range's warm-up: neither the new ad's nor a cluster-wide one.
	for _, line := range logged {
		if strings.Contains(line, "warm-up") {
			t.Fatalf("warm-up failed while a healthy replica was serving: %s", line)
		}
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatalf("Warm with replica 1 of range 0 still at the old epoch: %v", err)
	}

	// Probe replays the missed mutation and revives the replica.
	statuses := sets[0].Probe(ctx)
	for _, st := range statuses {
		if !st.Healthy {
			t.Fatalf("replica %d still unhealthy after probe: %v", st.Replica, st.Err)
		}
	}

	got, err := coord.Allocate(ctx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "post-revive", idx.Inst(), core.Request{Opts: opts}, want, got)

	// The revived replica can carry the range alone: kill replica 0
	// outright and allocate again.
	killed := 0
	coord2, sets2, _, err := NewReplicaCluster(inst, 6, seed, k, 2, Config{}, func(slot, rep int, cl Client) Client {
		if slot == 0 && rep == 0 {
			killed++
			return NewFaultClient(cl, 11, FaultRule{Op: "*", From: 30, Kind: FaultError})
		}
		return cl
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord2.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.AddAdBase(ctx, 6, opts); err != nil {
		t.Fatal(err)
	}
	got2, err := coord2.Allocate(ctx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSemantic(t, "mid-life replica death", idx.Inst(), core.Request{Opts: opts}, want, got2)
	_ = killed
	if sets2[0].HealthyCount() < 1 {
		t.Fatal("range 0 lost all replicas")
	}
}
