package serve

import (
	"context"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/shard"
)

// shardDaemon is an adshard-equivalent daemon: a shard's handler behind a
// test server. Close takes it down as cmd/adshard's shutdown does — the
// shard closes the connections its coordinators upgraded, which the server
// stops tracking once they are hijacked, and the server closes the rest.
type shardDaemon struct {
	*httptest.Server
	sh *shard.Shard
}

// Close shuts the daemon down; safe to call more than once.
func (d *shardDaemon) Close() {
	d.sh.Close()
	d.Server.Close()
}

// startShardDaemon serves sh until the test ends, or until the test closes
// the daemon.
func startShardDaemon(t *testing.T, sh *shard.Shard) *shardDaemon {
	d := &shardDaemon{Server: httptest.NewServer(sh.Handler()), sh: sh}
	t.Cleanup(d.Close)
	return d
}

// shardedServer spins k adshard-equivalent HTTP shards for params and a
// serve.Server in coordinator mode over them, all closed at cleanup, under
// leakcheck.
func shardedServer(t *testing.T, params InstanceParams, k int) (*httptest.Server, *Server) {
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
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		sh, err := shard.NewShard(roster, 0, params.Seed, p.Range(i))
		if err != nil {
			t.Fatal(err)
		}
		sh.Dataset = shard.DatasetParams{Name: params.Dataset, Seed: params.Seed, Scale: params.Scale, NumAds: params.NumAds}
		addrs[i] = strings.TrimPrefix(startShardDaemon(t, sh).URL, "http://")
	}
	srv := New(Options{Shards: addrs, Logf: t.Logf})
	if err := srv.ConnectShards(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	return front, srv
}

// TestShardedServeMatchesSingleNode drives the full HTTP stack in
// coordinator mode — 2 adshard processes' worth of handlers behind an
// adserver — and pins the /allocate response (seeds, revenue, regret)
// against single-node serving of the identical request, plus the
// shard-aware /healthz and /stats surfaces and the spend→residual loop.
func TestShardedServeMatchesSingleNode(t *testing.T) {
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

	front, _ := shardedServer(t, params, 2)
	var got AllocateResponse
	if code := postJSON(t, front.URL+"/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("sharded allocate: %d", code)
	}
	if !reflect.DeepEqual(want.Seeds, got.Seeds) {
		t.Fatalf("sharded seeds diverged\n want %v\n  got %v", want.Seeds, got.Seeds)
	}
	if !reflect.DeepEqual(want.EstRevenue, got.EstRevenue) {
		t.Fatalf("sharded revenues diverged\n want %v\n  got %v", want.EstRevenue, got.EstRevenue)
	}
	if want.EstRegret != got.EstRegret {
		t.Fatalf("sharded regret %v, single-node %v", got.EstRegret, want.EstRegret)
	}

	// Requests for any other instance are refused — a coordinator serves
	// exactly its cluster.
	other := req
	other.Seed = 99
	if code := postJSON(t, front.URL+"/allocate", other, nil); code != http.StatusBadRequest {
		t.Fatalf("foreign-instance allocate returned %d, want 400", code)
	}

	// Shard-aware health and stats.
	var health HealthResponse
	if code := getJSON(t, front.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || len(health.Shards) != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 shards", health)
	}
	for i, h := range health.Shards {
		if !h.Reachable || h.Shard != i {
			t.Fatalf("shard %d health = %+v", i, h)
		}
	}
	var stats StatsResponse
	if code := getJSON(t, front.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Sharded == nil || stats.Sharded.NumShards != 2 || stats.Sharded.Allocations != 1 {
		t.Fatalf("sharded stats = %+v", stats.Sharded)
	}
	if stats.IndexMemBytes <= 0 {
		t.Fatal("coordinator stats report zero index memory")
	}

	// Spend → residual allocation round-trip through the coordinator.
	name := got.AdNames[0]
	var spend SpendResponse
	if code := postJSON(t, front.URL+"/spend", SpendRequest{
		InstanceParams: params,
		Spend:          map[string]float64{name: 1e9},
	}, &spend); code != http.StatusOK {
		t.Fatalf("spend: %d", code)
	}
	if !spend.Ads[0].Depleted {
		t.Fatalf("ad %q not depleted after spend: %+v", name, spend.Ads[0])
	}
	residual := req
	residual.Residual = true
	var res AllocateResponse
	if code := postJSON(t, front.URL+"/allocate", residual, &res); code != http.StatusOK {
		t.Fatalf("residual allocate: %d", code)
	}
	if len(res.Seeds[0]) != 0 {
		t.Fatalf("depleted ad still got %d seeds", len(res.Seeds[0]))
	}

	// A request whose every ad is depleted still runs the (empty) loop to
	// its end, as on a single node: it is an allocation, and its phase
	// timings are observed like any other's.
	all := make(map[string]float64, len(got.AdNames))
	for _, ad := range got.AdNames {
		all[ad] = 1e9
	}
	if code := postJSON(t, front.URL+"/spend", SpendRequest{InstanceParams: params, Spend: all}, nil); code != http.StatusOK {
		t.Fatalf("spend all: %d", code)
	}
	if code := postJSON(t, front.URL+"/allocate", residual, &res); code != http.StatusOK {
		t.Fatalf("all-depleted allocate: %d", code)
	}
	if res.Iterations != 0 {
		t.Fatalf("all-depleted allocation ran %d rounds", res.Iterations)
	}
	body := scrapeMetrics(t, front.URL)
	for _, want := range []string{
		"adserver_allocations_total 3",
		`adserver_alloc_phase_seconds_count{phase="estimate"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q after an all-depleted allocation", want)
		}
	}
}

// TestShardedServeLifecycle exercises POST /ads and DELETE /ads/{name}
// against the coordinator: mutations broadcast to every shard, advance the
// epoch, and subsequent allocations cover the mutated campaign.
func TestShardedServeLifecycle(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	front, srv := shardedServer(t, params, 2)

	var added LifecycleResponse
	code := postJSON(t, front.URL+"/ads", AddAdRequest{
		InstanceParams: params,
		Ad:             NewAdSpec{Name: "promo", Budget: 4, CPE: 1, CTP: 0.5},
	}, &added)
	if code != http.StatusOK {
		t.Fatalf("add ad: %d", code)
	}
	if added.Epoch != 2 || added.AdNames[added.Position] != "promo" {
		t.Fatalf("add reply = %+v", added)
	}
	req := AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{MinTheta: 1024, MaxTheta: 4096},
	}
	var alloc AllocateResponse
	if code := postJSON(t, front.URL+"/allocate", req, &alloc); code != http.StatusOK {
		t.Fatalf("allocate after add: %d", code)
	}
	if len(alloc.Seeds) != added.NumAds || alloc.Epoch != 2 {
		t.Fatalf("allocation covers %d ads at epoch %d, want %d at 2", len(alloc.Seeds), alloc.Epoch, added.NumAds)
	}

	delReq, err := http.NewRequest(http.MethodDelete,
		front.URL+"/ads/promo?dataset=fig1&seed=1&scale=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove ad: %d", resp.StatusCode)
	}
	if epoch := srv.sharded.coord.Epoch(); epoch != 3 {
		t.Fatalf("epoch %d after add+remove, want 3", epoch)
	}
}

// TestShardedMutationsDegraded is the fault row of the lifecycle tables:
// with a range's only replica stopped (as in TestShardedHealthzDegraded),
// POST /ads and DELETE /ads/{name} answer 503 like /allocate — the one
// failure mapping — and every refusal lands in the failure counter, the
// wrong-instance 400 included.
func TestShardedMutationsDegraded(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	c := newTracedCluster(t, params, 2)

	foreign := SpendRequest{InstanceParams: InstanceParams{Dataset: "fig1", Seed: 9, Scale: 1}}
	if code := postJSON(t, c.front.URL+"/spend", foreign, nil); code != http.StatusBadRequest {
		t.Fatalf("foreign-instance spend returned %d, want 400", code)
	}

	c.shards[0].Close() // the owner of the Fig. 1 toy's one shared sample
	alloc := AllocateRequest{InstanceParams: params, Opts: TIRMParams{MinTheta: 1024, MaxTheta: 4096}}
	if code := postJSON(t, c.front.URL+"/allocate", alloc, nil); code != http.StatusServiceUnavailable {
		t.Errorf("allocate on a degraded cluster returned %d, want 503", code)
	}
	if code := deleteReq(t, c.front.URL+"/ads/a?dataset=fig1&seed=1&scale=1", nil); code != http.StatusServiceUnavailable {
		t.Errorf("DELETE /ads on a degraded cluster returned %d, want 503", code)
	}
	add := AddAdRequest{InstanceParams: params, Ad: NewAdSpec{Name: "promo", Budget: 4, CPE: 1}}
	if code := postJSON(t, c.front.URL+"/ads", add, nil); code != http.StatusServiceUnavailable {
		t.Errorf("POST /ads on a degraded cluster returned %d, want 503", code)
	}

	bad := metric(t, c.front.URL, `adserver_alloc_failures_total{reason="bad_request"}`)
	unavailable := metric(t, c.front.URL, `adserver_alloc_failures_total{reason="unavailable"}`)
	if bad != 1 || unavailable != 3 {
		t.Errorf("failures bad_request:%d unavailable:%d, want 1 and 3", bad, unavailable)
	}
}

// TestServerCloseReleasesShardConnections pins that Server.Close releases
// the connections ConnectShards opened. Over HTTP — daemons behind a
// wrapper that cannot hijack — every daemon connection reaches
// http.StateClosed within a second. Upgraded, each daemon's frame loops end
// (leakcheck) and its adshard_frame_connections gauge falls to 0.
func TestServerCloseReleasesShardConnections(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	req := AllocateRequest{InstanceParams: params}
	for _, framed := range []bool{false, true} {
		name := "http"
		if framed {
			name = "frames"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			roster, err := BuildDataset(params)
			if err != nil {
				t.Fatal(err)
			}
			p, err := shard.NewPartitioner(2)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			states := map[net.Conn]http.ConnState{}
			var addrs, daemons []string
			for i := 0; i < 2; i++ {
				sh, err := shard.NewShard(roster, 0, params.Seed, p.Range(i))
				if err != nil {
					t.Fatal(err)
				}
				sh.Dataset = shard.DatasetParams{Name: params.Dataset, Seed: params.Seed, Scale: params.Scale}
				h := sh.Handler()
				if !framed {
					inner := h
					h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						inner.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
					})
				}
				ts := httptest.NewUnstartedServer(h)
				ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
					mu.Lock()
					states[c] = st
					mu.Unlock()
				}
				ts.Start()
				t.Cleanup(ts.Close)
				t.Cleanup(sh.Close)
				addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
				daemons = append(daemons, ts.URL)
			}
			srv := New(Options{Shards: addrs, Logf: t.Logf})
			if err := srv.ConnectShards(context.Background()); err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(srv.Handler())
			t.Cleanup(front.Close)
			if code := postJSON(t, front.URL+"/allocate", req, nil); code != http.StatusOK {
				t.Fatalf("allocate: %d", code)
			}
			// The coordinator's connections; the scrapes below open their own.
			mu.Lock()
			coordinator := maps.Clone(states)
			mu.Unlock()
			srv.Close()
			open := func() (n int) {
				mu.Lock()
				for c := range coordinator {
					if st := states[c]; st != http.StateClosed && st != http.StateHijacked {
						n++
					}
				}
				mu.Unlock()
				for _, d := range daemons {
					n += int(metric(t, d, "adshard_frame_connections"))
				}
				return n
			}
			deadline := time.Now().Add(time.Second)
			for open() > 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := open(); n > 0 {
				t.Errorf("%d daemon connections still open a second after Server.Close", n)
			}
		})
	}
}
