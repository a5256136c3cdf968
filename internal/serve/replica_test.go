package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/shard"
)

// replicatedServer spins k×r adshard-equivalent HTTP shards (slot-major)
// and a serve.Server in coordinator mode over them, returning the backend
// daemons so callers can kill replicas mid-test. It runs under leakcheck.
func replicatedServer(t *testing.T, params InstanceParams, k, r int) (*httptest.Server, *Server, []*shardDaemon) {
	t.Helper()
	leakcheck.Check(t)
	roster, err := BuildDataset(params)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewPartitioner(k)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]*shardDaemon, k*r)
	addrs := make([]string, k*r)
	for slot := 0; slot < k; slot++ {
		for rep := 0; rep < r; rep++ {
			sh, err := shard.NewShard(roster, 0, params.Seed, p.Range(slot))
			if err != nil {
				t.Fatal(err)
			}
			sh.Dataset = shard.DatasetParams{Name: params.Dataset, Seed: params.Seed, Scale: params.Scale, NumAds: params.NumAds}
			d := startShardDaemon(t, sh)
			backends[slot*r+rep] = d
			addrs[slot*r+rep] = strings.TrimPrefix(d.URL, "http://")
		}
	}
	srv := New(Options{Shards: addrs, Replicas: r, Logf: t.Logf})
	if err := srv.ConnectShards(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	return front, srv, backends
}

// TestReplicatedServeFailover drives the full HTTP stack at K=2, R=2:
// allocations match single-node serving, killing one replica of a range
// mid-run degrades nothing user-visible (the allocation still succeeds
// and /healthz stays "ok" with the dead replica reported unreachable),
// and killing the second replica of the same range turns /allocate into a
// prompt 503 and /healthz into "degraded" naming the range.
func TestReplicatedServeFailover(t *testing.T) {
	params := InstanceParams{Dataset: "flixster", Seed: 1, Scale: 0.01}
	req := AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{Eps: 0.3, MinTheta: 1024, MaxTheta: 8192},
	}

	single := testServer(t, Options{})
	var want AllocateResponse
	if code := postJSON(t, single.URL+"/allocate", req, &want); code != http.StatusOK {
		t.Fatalf("single-node allocate: %d", code)
	}

	front, _, backends := replicatedServer(t, params, 2, 2)

	// Full-strength cluster matches the single node.
	var got AllocateResponse
	if code := postJSON(t, front.URL+"/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("replicated allocate: %d", code)
	}
	if !reflect.DeepEqual(want.Seeds, got.Seeds) {
		t.Fatalf("replicated seeds diverged\n want %v\n  got %v", want.Seeds, got.Seeds)
	}

	var health HealthResponse
	if code := getJSON(t, front.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || len(health.Shards) != 4 {
		t.Fatalf("healthz = %+v, want ok with 4 replica rows", health)
	}

	var stats StatsResponse
	if code := getJSON(t, front.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Sharded == nil || stats.Sharded.NumShards != 2 || stats.Sharded.Replicas != 2 {
		t.Fatalf("sharded stats = %+v, want 2 shards × 2 replicas", stats.Sharded)
	}

	// Kill the preferred replica of range 0. The very next allocation must
	// fail over and still match the single node bit for bit.
	backends[0].Close()
	if code := postJSON(t, front.URL+"/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("allocate after replica kill: %d", code)
	}
	if !reflect.DeepEqual(want.Seeds, got.Seeds) {
		t.Fatalf("post-failover seeds diverged\n want %v\n  got %v", want.Seeds, got.Seeds)
	}

	// Health stays "ok" — the range still has a live replica — but the
	// dead replica is reported unreachable.
	if code := getJSON(t, front.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after replica kill: %d", code)
	}
	if health.Status != "ok" || len(health.DegradedRanges) != 0 {
		t.Fatalf("healthz after single-replica kill = %+v, want ok", health)
	}
	dead := 0
	for _, h := range health.Shards {
		if !h.Reachable {
			dead++
			if h.Shard != 0 || h.Replica != 0 {
				t.Fatalf("wrong replica reported dead: %+v", h)
			}
		}
	}
	if dead != 1 {
		t.Fatalf("%d replicas reported unreachable, want 1", dead)
	}

	// Kill the second replica of range 0: the whole range is gone, so
	// /allocate degrades to a prompt 503 and /healthz names the range.
	backends[1].Close()
	if code := postJSON(t, front.URL+"/allocate", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("allocate with range 0 fully down: %d, want 503", code)
	}
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with range 0 fully down: %d, want 503", resp.StatusCode)
	}
	health = HealthResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !reflect.DeepEqual(health.DegradedRanges, []int{0}) {
		t.Fatalf("healthz = %+v, want degraded with range 0", health)
	}
}

// TestConnectShardsRejectsRaggedRoster pins roster validation: the shard
// list length must be a multiple of -replicas.
func TestConnectShardsRejectsRaggedRoster(t *testing.T) {
	srv := New(Options{Shards: []string{"a:1", "b:2", "c:3"}, Replicas: 2})
	if err := srv.ConnectShards(context.Background()); err == nil {
		t.Fatal("ragged roster accepted")
	}
}
