package shard

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/bandit"
)

// snapshotAt builds a bandit snapshot with the given event total, plus
// one observed cell so Restore has something to validate.
func snapshotAt(t *testing.T, events int64) bandit.State {
	t.Helper()
	est, err := bandit.New(bandit.PolicyUCB, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < events; i++ {
		if err := est.Observe(bandit.Event{Ad: "a0", Impressions: 10, Clicks: 4}); err != nil {
			t.Fatal(err)
		}
	}
	return est.Snapshot()
}

// TestSyncEstimatesTransports pins transport equivalence for estimator
// sync: the same snapshot pushed through a LocalClient and an HTTPClient
// is stored byte-identically on both shards — the payload is integer
// counts, so JSON cannot perturb it.
func TestSyncEstimatesTransports(t *testing.T) {
	inst := testInstance()
	const seed = 42

	p, err := NewPartitioner(2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, 2)
	for i := range shards {
		s, err := NewShard(inst, 0, seed, p.Range(i))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	ts := httptest.NewServer(shards[1].Handler())
	defer ts.Close()
	defer shards[1].Close()
	clients := []Client{LocalClient{S: shards[0]}, NewHTTPClient(ts.URL)}

	st := snapshotAt(t, 3)
	ctx := context.Background()
	for i, cl := range clients {
		if err := cl.SyncEstimates(ctx, SyncEstimatesRequest{State: st}); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	got0, ok0 := shards[0].Estimates()
	got1, ok1 := shards[1].Estimates()
	if !ok0 || !ok1 {
		t.Fatalf("estimates missing after sync: ok0=%v ok1=%v", ok0, ok1)
	}
	if !reflect.DeepEqual(got0, st) {
		t.Errorf("local transport stored %+v, want %+v", got0, st)
	}
	if !reflect.DeepEqual(got0, got1) {
		t.Errorf("transports diverge: local %+v, http %+v", got0, got1)
	}
}

// TestSyncEstimatesMonotoneGuard pins the out-of-order rebroadcast
// defence: a snapshot whose event total does not exceed the stored one
// is acknowledged but ignored, so delayed retries cannot roll a shard's
// estimate table backwards.
func TestSyncEstimatesMonotoneGuard(t *testing.T) {
	inst := testInstance()
	p1, err := NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(inst, 0, 42, p1.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	newer := snapshotAt(t, 5)
	older := snapshotAt(t, 2)

	if err := s.SyncEstimates(SyncEstimatesRequest{State: newer}); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncEstimates(SyncEstimatesRequest{State: older}); err != nil {
		t.Fatalf("stale snapshot should be ignored, not rejected: %v", err)
	}
	got, ok := s.Estimates()
	if !ok {
		t.Fatal("estimates missing")
	}
	if got.Events != newer.Events {
		t.Errorf("stale rebroadcast rolled back events: got %d, want %d", got.Events, newer.Events)
	}

	// Equal event totals are also ignored (idempotent rebroadcast).
	if err := s.SyncEstimates(SyncEstimatesRequest{State: newer}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Estimates(); got.Events != newer.Events {
		t.Errorf("events after idempotent rebroadcast: got %d, want %d", got.Events, newer.Events)
	}
}

// TestSyncEstimatesRejectsMalformed pins validation: a snapshot that
// bandit.Restore would refuse is rejected without touching stored state.
func TestSyncEstimatesRejectsMalformed(t *testing.T) {
	inst := testInstance()
	p1, err := NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(inst, 0, 42, p1.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	good := snapshotAt(t, 1)
	if err := s.SyncEstimates(SyncEstimatesRequest{State: good}); err != nil {
		t.Fatal(err)
	}

	bad := snapshotAt(t, 4)
	bad.Policy = "nope"
	if err := s.SyncEstimates(SyncEstimatesRequest{State: bad}); err == nil {
		t.Error("malformed snapshot accepted")
	}
	got, ok := s.Estimates()
	if !ok || got.Events != good.Events {
		t.Errorf("stored state perturbed by rejected snapshot: ok=%v events=%d", ok, got.Events)
	}
}

// TestCoordinatorSyncEstimatesBroadcast pins the coordinator fan-out:
// one SyncEstimates call lands the snapshot on every shard.
func TestCoordinatorSyncEstimatesBroadcast(t *testing.T) {
	inst := testInstance()
	const k = 3
	coord, shards, err := NewLocalCluster(inst, 0, 42, k, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := snapshotAt(t, 2)
	if err := coord.SyncEstimates(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		got, ok := s.Estimates()
		if !ok {
			t.Fatalf("shard %d missing estimates", i)
		}
		if !reflect.DeepEqual(got, st) {
			t.Errorf("shard %d stored %+v, want %+v", i, got, st)
		}
	}
}
