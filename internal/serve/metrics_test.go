package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/shard"
)

// scrapeMetrics GETs url's /metrics, validates the exposition with
// obs.Lint, and returns the body for substring assertions.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d\n%s", resp.StatusCode, body)
	}
	if err := obs.Lint(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	return string(body)
}

// metric scrapes url's /metrics and returns the value of one counter
// sample, named as the exposition spells it (`family` or
// `family{label="v"}`); a labelled child no event has created yet reads 0.
func metric(t *testing.T, url, sample string) uint64 {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, url), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %q has value %q: %v", sample, v, err)
			}
			return n
		}
	}
	return 0
}

// sumSamples returns the sum of every labelled sample of one counter family
// in an exposition body.
func sumSamples(t *testing.T, body, family string) (sum uint64) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		_, v, _ := strings.Cut(line, "} ")
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += n
	}
	return sum
}

// TestMetricsEndpoint drives one successful and one rejected allocation
// through a single-node server and checks the /metrics surface: the
// exposition parses (TYPE lines, monotone cumulative buckets, +Inf ==
// _count — see obs.Lint), the allocation and failure counters carry the
// expected values, and the per-phase histograms observed the run.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t, Options{})

	var alloc AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &alloc); code != http.StatusOK {
		t.Fatalf("allocate: %d", code)
	}
	// A zero-scale request is refused with 400 and must land in the
	// failure counter under reason="bad_request".
	bad := AllocateRequest{InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1}}
	if code := postJSON(t, ts.URL+"/allocate", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("zero-scale allocate returned %d, want 400", code)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"adserver_allocations_total 1",
		`adserver_alloc_failures_total{reason="bad_request"} 1`,
		"adserver_alloc_seconds_count 1",
		"adserver_alloc_rounds_count 1",
		`adserver_kernel_selected_total{kernel="bitset"} 4`, // the Fig. 1 toy is dense: all 4 ads
		"adserver_openings_built_total 1",                   // a θ the index had not been opened at: one per sample, and the 4 ads share one
		`adserver_alloc_phase_seconds_count{phase="scan"} 1`,
		`adserver_alloc_phase_seconds_count{phase="commit"} 1`,
		`adserver_http_requests_total{endpoint="allocate",code="200"} 1`,
		`adserver_http_requests_total{endpoint="allocate",code="400"} 1`,
		"adserver_cache_misses_total 1",
		"adserver_cache_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
	// The same θ again copies the stored openings: the counter stays put.
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), nil); code != http.StatusOK {
		t.Fatalf("repeat allocate: %d", code)
	}
	body = scrapeMetrics(t, ts.URL)
	for _, want := range []string{"adserver_allocations_total 2", "adserver_openings_built_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after a repeat request missing %q", want)
		}
	}
	if got := metric(t, ts.URL, `adserver_alloc_failures_total{reason="bad_request"}`); got != 1 {
		t.Fatalf("bad_request failures after the repeat = %d, want 1", got)
	}
}

// TestTraceHeaderEcho pins the middleware's trace contract on a plain
// request: a caller-supplied X-Trace-Id comes back verbatim, and a request
// without one is assigned a fresh id.
func TestTraceHeaderEcho(t *testing.T) {
	ts := testServer(t, Options{})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "trace-echo-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-echo-test" {
		t.Fatalf("trace header %q, want the caller's id echoed", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got == "" {
		t.Fatal("no trace id minted for an untraced request")
	}
}

// tracedCluster is shardedServer plus observability handles: the backing
// shard HTTP servers (so tests can kill one) and a capture of every shard
// daemon's structured request log.
type tracedCluster struct {
	front  *httptest.Server
	shards []*shardDaemon

	mu   sync.Mutex
	logs []string
}

func (c *tracedCluster) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// spreadParams is a campaign whose four ads draw from vectors of their own,
// so each slot of a 2-shard cluster owns two of them. The Fig. 1 toy's four
// ads share one sample, which lives on slot 0 alone.
var spreadParams = InstanceParams{Dataset: "flixster", Seed: 1, Scale: 0.01, NumAds: 4}

func (c *tracedCluster) logged(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.logs {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func newTracedCluster(t *testing.T, params InstanceParams, k int) *tracedCluster {
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
	c := &tracedCluster{}
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		sh, err := shard.NewShard(roster, 0, params.Seed, p.Range(i))
		if err != nil {
			t.Fatal(err)
		}
		sh.Dataset = shard.DatasetParams{Name: params.Dataset, Seed: params.Seed, Scale: params.Scale, NumAds: params.NumAds}
		sh.Logf = c.logf
		d := startShardDaemon(t, sh)
		c.shards = append(c.shards, d)
		addrs[i] = strings.TrimPrefix(d.URL, "http://")
	}
	srv := New(Options{Shards: addrs, Logf: t.Logf})
	if err := srv.ConnectShards(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c.front = httptest.NewServer(srv.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// TestShardedTracePropagation sends a traced /allocate through the full
// coordinator stack and checks the id survives every hop: echoed on the
// front response, forwarded on the shard RPC fan-out, and stamped into
// each daemon's request log — so one grep ties an allocation to all its
// shard-side work. The same run must also populate the fabric RPC metrics
// on the coordinator and the daemon-side HTTP metrics on the shards.
func TestShardedTracePropagation(t *testing.T) {
	params := spreadParams
	c := newTracedCluster(t, params, 2)

	raw, err := json.Marshal(AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{MinTheta: 1024, MaxTheta: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.front.URL+"/allocate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.TraceHeader, "trace-e2e")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded allocate: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-e2e" {
		t.Fatalf("front echoed trace %q, want trace-e2e", got)
	}
	if !c.logged("trace=trace-e2e") {
		t.Fatalf("no shard log line carries trace=trace-e2e; logs:\n%s",
			strings.Join(c.logs, "\n"))
	}
	if !c.logged("component=adshard") {
		t.Fatal("shard logs missing component=adshard")
	}

	// Coordinator-side fabric telemetry.
	body := scrapeMetrics(t, c.front.URL)
	for _, want := range []string{
		`adserver_shard_rpcs_total{op="commit",shard="0",outcome="ok"}`,
		`adserver_shard_rpcs_total{op="start",shard="1",outcome="ok"}`,
		`adserver_coordinator_round_seconds_count{phase="commit"}`,
		"adserver_allocations_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	// Daemon-side exposition on each shard.
	for i, sh := range c.shards {
		sb := scrapeMetrics(t, sh.URL)
		for _, want := range []string{
			`adshard_http_requests_total{endpoint="shard_commit",code="200"}`,
			"adshard_epoch 1",
		} {
			if !strings.Contains(sb, want) {
				t.Errorf("shard %d /metrics missing %q", i, want)
			}
		}
	}

	// The lifecycle fan-outs — ensure from POST /ads, end after every run —
	// reach the shards but are not rounds. /feedback reaches none: the
	// estimator lives on the serving host alone.
	add := AddAdRequest{InstanceParams: params, Ad: NewAdSpec{Name: "promo", Budget: 4, CPE: 1, CTP: 0.5}}
	if code := postJSON(t, c.front.URL+"/ads", add, nil); code != http.StatusOK {
		t.Fatalf("add ad: %d", code)
	}
	body = scrapeMetrics(t, c.front.URL)
	for _, op := range []string{"ensure", "end"} {
		if !strings.Contains(body, `adserver_shard_rpcs_total{op="`+op+`",shard="0",outcome="ok"}`) {
			t.Errorf("coordinator sent no %s", op)
		}
	}
	rpcs := sumSamples(t, body, "adserver_shard_rpcs_total")
	feedback := FeedbackRequest{InstanceParams: params, Events: feedbackEvents([]string{"ad00", "ad01", "ad02", "ad03"})}
	if code := postJSON(t, c.front.URL+"/feedback", feedback, nil); code != http.StatusOK {
		t.Fatalf("feedback: %d", code)
	}
	if n := sumSamples(t, scrapeMetrics(t, c.front.URL), "adserver_shard_rpcs_total") - rpcs; n != 0 {
		t.Errorf("/feedback sent %d shard RPCs, want 0", n)
	}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `adserver_coordinator_round_seconds_count{phase="`)
		if phase, _, _ := strings.Cut(rest, `"`); ok && !slices.Contains(roundPhases, phase) {
			t.Errorf("round phase %q: only the run ops %v are rounds", phase, roundPhases)
		}
	}
}

// TestShardedHealthzDegraded kills one daemon of a live cluster and checks
// the coordinator's /healthz flips to 503/"degraded" with the dead slot
// marked unreachable — the contract a load balancer's probe relies on.
func TestShardedHealthzDegraded(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	c := newTracedCluster(t, params, 2)

	var health HealthResponse
	if code := getJSON(t, c.front.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz before kill: %d", code)
	}

	c.shards[1].Close()
	resp, err := http.Get(c.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: %d, want 503", resp.StatusCode)
	}
	health = HealthResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("status %q, want degraded", health.Status)
	}
	if len(health.Shards) != 2 || health.Shards[0].Reachable == false || health.Shards[1].Reachable {
		t.Fatalf("shard health = %+v, want slot 1 unreachable only", health.Shards)
	}
}

// TestUnroutedPathsShareOneLabel: a request neither daemon's mux routes is
// metered and traced under endpoint="unmatched", so a scan of 100 made-up
// paths adds at most one child to each HTTP metric family — not one per
// path — on the coordinator and on a shard alike.
func TestUnroutedPathsShareOneLabel(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	c := newTracedCluster(t, params, 1)
	daemons := []struct {
		url, prefix string
		send        func(i int) (*http.Response, error)
	}{
		{c.front.URL, "adserver", func(i int) (*http.Response, error) {
			return http.Get(fmt.Sprintf("%s/nope%d/x", c.front.URL, i))
		}},
		{c.shards[0].URL, "adshard", func(i int) (*http.Response, error) {
			return http.Post(fmt.Sprintf("%s/shard/x%d", c.shards[0].URL, i), "application/json", strings.NewReader("{}"))
		}},
	}
	children := func(url, prefix string) map[string]int {
		body := scrapeMetrics(t, url)
		out := map[string]int{}
		for _, family := range []string{prefix + "_http_requests_total{", prefix + "_http_request_seconds_count{"} {
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, family) {
					out[family]++
				}
			}
		}
		return out
	}
	for _, d := range daemons {
		children(d.url, d.prefix) // the scrapes' own endpoint="metrics" children
		before := children(d.url, d.prefix)
		for i := 0; i < 100; i++ {
			resp, err := d.send(i)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s: unrouted path answered %d, want 404", d.prefix, resp.StatusCode)
			}
		}
		after := children(d.url, d.prefix)
		for family, n := range after {
			if n > before[family]+1 {
				t.Errorf("%s: 100 unrouted paths grew %s… from %d to %d children", d.prefix, family, before[family], n)
			}
		}
		if !strings.Contains(scrapeMetrics(t, d.url), d.prefix+`_http_requests_total{endpoint="unmatched",code="404"} 100`) {
			t.Errorf("%s: the 100 unrouted requests are not counted under endpoint=\"unmatched\"", d.prefix)
		}
	}
}
