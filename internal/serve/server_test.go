package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/leakcheck"
)

// testServer starts a server over opts for the test's lifetime, under
// leakcheck: the test fails if the server leaves a goroutine behind once
// it is closed.
func testServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	leakcheck.Check(t)
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	ts := httptest.NewServer(New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func fig1Request() AllocateRequest {
	return AllocateRequest{
		InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1, Scale: 0.05},
		Opts:           TIRMParams{MinTheta: 3000, MaxTheta: 20000},
	}
}

// TestServerEndToEnd drives the full loop the subsystem exists for:
// allocate (cold build) → allocate again (warm) → evaluate the returned
// seeds → stats showing the cache hit.
func TestServerEndToEnd(t *testing.T) {
	ts := testServer(t, Options{})

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	var datasets []DatasetInfo
	if code := getJSON(t, ts.URL+"/datasets", &datasets); code != http.StatusOK || len(datasets) < 4 {
		t.Fatalf("datasets returned %d with %d entries", code, len(datasets))
	}

	var cold AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &cold); code != http.StatusOK {
		t.Fatalf("cold allocate returned %d", code)
	}
	if !cold.ColdBuild {
		t.Error("first allocation did not report a cold build")
	}
	if len(cold.Seeds) != 4 {
		t.Fatalf("fig1 allocation covers %d ads", len(cold.Seeds))
	}

	var warm AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &warm); code != http.StatusOK {
		t.Fatalf("warm allocate returned %d", code)
	}
	if warm.ColdBuild {
		t.Error("second allocation reported a cold build")
	}
	if warm.SetsSampled != 0 {
		t.Errorf("warm allocation drew %d sets", warm.SetsSampled)
	}
	if !reflect.DeepEqual(cold.Seeds, warm.Seeds) {
		t.Errorf("warm allocation diverged: %v vs %v", cold.Seeds, warm.Seeds)
	}

	var outcome eval.Outcome
	evalReq := EvaluateRequest{
		InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1, Scale: 0.05},
		Seeds:          cold.Seeds,
		Runs:           2000,
		EvalSeed:       7,
	}
	if code := postJSON(t, ts.URL+"/evaluate", evalReq, &outcome); code != http.StatusOK {
		t.Fatalf("evaluate returned %d", code)
	}
	if len(outcome.Ads) != 4 || outcome.TotalBudget != 9 {
		t.Errorf("unexpected outcome: %d ads, budget %v", len(outcome.Ads), outcome.TotalBudget)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if stats.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", stats.CacheMisses)
	}
	// Warm allocate + evaluate both hit the cached entry.
	if stats.CacheHits < 2 {
		t.Errorf("cache hits = %d, want ≥ 2", stats.CacheHits)
	}
	if len(stats.Entries) != 1 || stats.Entries[0].MemBytes <= 0 {
		t.Errorf("stats entries: %+v", stats.Entries)
	}
	if stats.Entries[0].Allocations != 2 {
		t.Errorf("entry allocations = %d, want 2", stats.Entries[0].Allocations)
	}
	if got := stats.IndexMemByDataset["fig1"]; got != stats.IndexMemBytes || got <= 0 {
		t.Errorf("per-dataset index memory = %v (total %d)", stats.IndexMemByDataset, stats.IndexMemBytes)
	}
}

// TestServerCoalescing: concurrent identical requests trigger exactly one
// index build.
func TestServerCoalescing(t *testing.T) {
	ts := testServer(t, Options{})
	const workers = 8
	var wg sync.WaitGroup
	seeds := make([][][]int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var resp AllocateResponse
			if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &resp); code != http.StatusOK {
				t.Errorf("worker %d: allocate returned %d", w, code)
				return
			}
			seeds[w] = resp.Seeds
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(seeds[0], seeds[w]) {
			t.Fatalf("worker %d allocation diverged", w)
		}
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if stats.CacheMisses != 1 {
		t.Errorf("concurrent requests caused %d builds", stats.CacheMisses)
	}
	coalesced := metric(t, ts.URL, "adserver_cache_coalesced_total")
	if stats.CacheHits+int64(coalesced) != workers-1 {
		t.Errorf("hits %d + coalesced %d, want %d", stats.CacheHits, coalesced, workers-1)
	}
	// One more request is a hit for certain; after a miss, waits on its
	// build and hits, /stats still reads what /metrics counts.
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), nil); code != http.StatusOK {
		t.Fatalf("sequential allocate returned %d", code)
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	hits, misses := metric(t, ts.URL, "adserver_cache_hits_total"), metric(t, ts.URL, "adserver_cache_misses_total")
	if uint64(stats.CacheHits) != hits || uint64(stats.CacheMisses) != misses || hits+coalesced != workers {
		t.Errorf("/stats hits %d misses %d; /metrics hits %d misses %d coalesced %d (%d requests)",
			stats.CacheHits, stats.CacheMisses, hits, misses, coalesced, workers+1)
	}
}

// TestServerSnapshotRestart: a second server pointed at the same snapshot
// directory starts warm and reproduces the allocation without sampling.
func TestServerSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	first := testServer(t, Options{SnapshotDir: dir})
	var a AllocateResponse
	if code := postJSON(t, first.URL+"/allocate", fig1Request(), &a); code != http.StatusOK {
		t.Fatalf("allocate returned %d", code)
	}

	second := testServer(t, Options{SnapshotDir: dir})
	var b AllocateResponse
	if code := postJSON(t, second.URL+"/allocate", fig1Request(), &b); code != http.StatusOK {
		t.Fatalf("allocate on restarted server returned %d", code)
	}
	if !b.FromSnapshot {
		t.Error("restarted server did not load the snapshot")
	}
	if b.SetsSampled != 0 {
		t.Errorf("restarted server sampled %d sets", b.SetsSampled)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) {
		t.Errorf("allocation changed across restart: %v vs %v", a.Seeds, b.Seeds)
	}
	if got := metric(t, second.URL, "adserver_snapshot_loads_total"); got != 1 {
		t.Errorf("snapshot loads = %d, want 1", got)
	}
}

// TestServerOverrides exercises the selection-time knobs that reuse one
// cached index.
func TestServerOverrides(t *testing.T) {
	ts := testServer(t, Options{})
	base := fig1Request()

	lambda := 100.0
	req := base
	req.Lambda = &lambda
	var resp AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", req, &resp); code != http.StatusOK {
		t.Fatalf("λ override returned %d", code)
	}
	for _, s := range resp.Seeds {
		if len(s) != 0 {
			t.Errorf("λ=100 still allocated seeds: %v", resp.Seeds)
			break
		}
	}

	req = base
	req.Ads = []int{0}
	if code := postJSON(t, ts.URL+"/allocate", req, &resp); code != http.StatusOK {
		t.Fatalf("subset returned %d", code)
	}
	for j := 1; j < len(resp.Seeds); j++ {
		if len(resp.Seeds[j]) != 0 {
			t.Errorf("unselected ad %d got seeds", j)
		}
	}
	// Regret covers only the requested subset: fig1's excluded ads hold
	// budgets 2+2+1, which must not count against this allocation (ad 0's
	// own budget is 4).
	if resp.EstRegret >= 4.1 {
		t.Errorf("subset estRegret %.2f includes excluded ads' budgets", resp.EstRegret)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.CacheMisses != 1 {
		t.Errorf("override requests fragmented the cache: %d misses", stats.CacheMisses)
	}
}

// TestServerEviction: the cache holds at most MaxEntries entries; LRU keys
// are dropped, and a re-requested evicted key still answers correctly
// (reloading its snapshot when one exists).
func TestServerEviction(t *testing.T) {
	dir := t.TempDir()
	ts := testServer(t, Options{MaxEntries: 2, SnapshotDir: dir})
	requests := make([]AllocateRequest, 3)
	first := make([][][]int32, 3)
	for i := range requests {
		requests[i] = fig1Request()
		requests[i].Seed = uint64(i + 1)
		var resp AllocateResponse
		if code := postJSON(t, ts.URL+"/allocate", requests[i], &resp); code != http.StatusOK {
			t.Fatalf("allocate seed %d returned %d", i+1, code)
		}
		first[i] = resp.Seeds
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatal("stats failed")
	}
	if len(stats.Entries) > 2 {
		t.Errorf("cache holds %d entries, cap is 2", len(stats.Entries))
	}
	// Seed 1 was evicted; requesting it again must rebuild (from snapshot)
	// and reproduce the original allocation.
	var again AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", requests[0], &again); code != http.StatusOK {
		t.Fatal("re-request of evicted key failed")
	}
	if !again.ColdBuild || !again.FromSnapshot {
		t.Errorf("evicted key rebuilt cold=%v fromSnapshot=%v; want cold snapshot reload",
			again.ColdBuild, again.FromSnapshot)
	}
	if !reflect.DeepEqual(first[0], again.Seeds) {
		t.Error("allocation changed across eviction")
	}
}

// TestServerEvaluateDoesNotBuildIndex: /evaluate only needs the instance,
// so a cold-key evaluate must not trigger index presampling.
func TestServerEvaluateDoesNotBuildIndex(t *testing.T) {
	ts := testServer(t, Options{})
	req := EvaluateRequest{
		InstanceParams: InstanceParams{Dataset: "fig1", Seed: 3, Scale: 0.05},
		Seeds:          [][]int32{{0}, {1}, {2}, {3}},
		Runs:           200,
	}
	if code := postJSON(t, ts.URL+"/evaluate", req, nil); code != http.StatusOK {
		t.Fatalf("evaluate returned %d", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatal("stats failed")
	}
	if len(stats.Entries) != 1 {
		t.Fatalf("stats shows %d entries", len(stats.Entries))
	}
	if stats.Entries[0].IndexBuilt || stats.Entries[0].SetsSampled != 0 {
		t.Errorf("evaluate built an index: %+v", stats.Entries[0])
	}
}

// TestServerEvaluateRejectsNegativeLambda: /evaluate checks λ by the rule
// /allocate applies, in both modes — a negative λ is a 400, never a
// negative seed regret.
func TestServerEvaluateRejectsNegativeLambda(t *testing.T) {
	base := fig1Request()
	bothModes(t, base.InstanceParams, func(t *testing.T, ts *httptest.Server, _ bool) {
		for _, c := range []struct {
			lambda float64
			want   int
		}{{-1, http.StatusBadRequest}, {0.5, http.StatusOK}} {
			req := EvaluateRequest{
				InstanceParams: base.InstanceParams,
				Seeds:          [][]int32{{0}, {1}, {2}, {3}},
				Runs:           100,
				Lambda:         &c.lambda,
			}
			if code := postJSON(t, ts.URL+"/evaluate", req, nil); code != c.want {
				t.Errorf("evaluate λ = %v: %d, want %d", c.lambda, code, c.want)
			}
		}
	})
}

// TestAllocateRefusedRequestIs400: a request core.Request.Resolve refuses —
// a negative λ, an ad the campaign does not have — is the client's fault in
// both modes: 400, counted under reason bad_request. The coordinator once
// reported it as a failed shard allocation, 502.
func TestAllocateRefusedRequestIs400(t *testing.T) {
	base := fig1Request()
	bothModes(t, base.InstanceParams, func(t *testing.T, ts *httptest.Server, _ bool) {
		negative, unknown := base, base
		lambda := -1.0
		negative.Lambda = &lambda
		unknown.Ads = []int{99}
		for name, req := range map[string]AllocateRequest{"negative-lambda": negative, "unknown-ad": unknown} {
			if code := postJSON(t, ts.URL+"/allocate", req, nil); code != http.StatusBadRequest {
				t.Errorf("%s: POST /allocate returned %d, want 400", name, code)
			}
		}
		const refused = `adserver_alloc_failures_total{reason="bad_request"}`
		if n := metric(t, ts.URL, refused); n != 2 {
			t.Errorf("%s = %d, want 2", refused, n)
		}
	})
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts := testServer(t, Options{})
	for name, body := range map[string]AllocateRequest{
		"unknown-dataset": {InstanceParams: InstanceParams{Dataset: "nope", Seed: 1, Scale: 0.05}},
		"zero-scale":      {InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1}},
		"huge-scale":      {InstanceParams: InstanceParams{Dataset: "livejournal", Seed: 1, Scale: 5}},
		"bad-subset":      {InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1, Scale: 0.05, NumAds: 0}, Ads: []int{99}},
	} {
		if code := postJSON(t, ts.URL+"/allocate", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, code)
		}
	}
	// GET on a POST endpoint.
	if code := getJSON(t, ts.URL+"/allocate", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /allocate returned %d, want 405", code)
	}
	// Unknown field — the retired "kernel" option is one like any other.
	resp, err := http.Post(ts.URL+"/allocate", "application/json",
		bytes.NewReader([]byte(`{"dataset":"fig1","seed":1,"scale":0.05,"kernel":"auto"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field returned %d, want 400", resp.StatusCode)
	}
}

func TestWarmSpec(t *testing.T) {
	p, err := WarmSpec("flixster:3:0.02:5")
	if err != nil {
		t.Fatal(err)
	}
	want := InstanceParams{Dataset: "flixster", Seed: 3, Scale: 0.02, NumAds: 5}
	if p != want {
		t.Errorf("got %+v, want %+v", p, want)
	}
	for _, bad := range []string{"", "flixster", "flixster:x:0.02", "a:1:2:3:4",
		// Trailing garbage must not warm a key no client will ask for.
		"flixster:12abc:0.5", "flixster:12:0.5x", "flixster:12:0.5:5ads", "flixster:-1:0.5", "flixster:12: 0.5"} {
		if _, err := WarmSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for quick debugging edits
