package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// tracedAllocate POSTs an /allocate with a caller-chosen trace id and the
// sampled flag forced, so the resulting trace is deterministically
// retained and retrievable by id.
func tracedAllocate(t *testing.T, frontURL, traceID string, req AllocateRequest) AllocateResponse {
	t.Helper()
	var out AllocateResponse
	tracedPost(t, frontURL+"/allocate", traceID, req, &out)
	return out
}

// tracedPost POSTs in as JSON under a force-sampled trace id and decodes
// the 200 reply into out.
func tracedPost(t *testing.T, url, traceID string, in, out any) {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.TraceHeader, traceID)
	httpReq.Header.Set(obs.FlagsHeader, "1")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced POST %s: %d\n%s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// fetchTrace GETs /debug/traces/{id} and decodes the span tree.
func fetchTrace(t *testing.T, baseURL, id string) obs.TraceData {
	t.Helper()
	var td obs.TraceData
	if code := getJSON(t, baseURL+"/debug/traces/"+id, &td); code != http.StatusOK {
		t.Fatalf("/debug/traces/%s: %d", id, code)
	}
	return td
}

// spansByName indexes a trace's spans, counting duplicates per name prefix.
func spanNames(td obs.TraceData) map[string]int {
	names := map[string]int{}
	for _, s := range td.Spans {
		names[s.Name]++
	}
	return names
}

// TestAllocateTraceExplain drives one explain-enabled, force-sampled
// allocation through a single-node server and pins the whole local span
// tree: the middleware's server span, the alloc span under it, synthetic
// per-phase children, and one commit event per selection round. It also
// pins the determinism contract — the traced, explained allocation
// returns exactly the same seeds as a plain one.
func TestAllocateTraceExplain(t *testing.T) {
	ts := testServer(t, Options{})

	var plain AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &plain); code != http.StatusOK {
		t.Fatalf("plain allocate: %d", code)
	}

	req := fig1Request()
	req.Explain = true
	traced := tracedAllocate(t, ts.URL, "alloc-explain-trace", req)
	if !reflect.DeepEqual(traced.Seeds, plain.Seeds) {
		t.Fatalf("traced+explained allocation diverged from plain:\n%v\nvs\n%v", traced.Seeds, plain.Seeds)
	}

	td := fetchTrace(t, ts.URL, "alloc-explain-trace")
	if td.Reason != "sampled" && td.Reason != "latency" {
		t.Fatalf("trace retained as %q, want forced sampling (or latency)", td.Reason)
	}
	names := spanNames(td)
	if names["http.allocate"] != 1 || names["alloc"] != 1 {
		t.Fatalf("span tree missing server/alloc spans: %v", names)
	}
	var serverSpan, allocSpan obs.SpanData
	for _, s := range td.Spans {
		switch s.Name {
		case "http.allocate":
			serverSpan = s
		case "alloc":
			allocSpan = s
		}
	}
	if allocSpan.Parent != serverSpan.ID {
		t.Fatalf("alloc span parent %q, want server span %q", allocSpan.Parent, serverSpan.ID)
	}
	if serverSpan.Attrs["status"] != 200 || serverSpan.Strs["method"] != "POST" {
		t.Fatalf("server span attrs: %+v %+v", serverSpan.Attrs, serverSpan.Strs)
	}
	phases := 0
	for name := range names {
		if strings.HasPrefix(name, "phase.") {
			phases++
		}
	}
	if phases == 0 {
		t.Fatalf("no phase.* children in span tree: %v", names)
	}
	commits := 0
	for _, ev := range allocSpan.Events {
		if ev.Name != "commit" {
			continue
		}
		commits++
		if _, ok := ev.Attrs["ad"]; !ok {
			t.Fatalf("commit event missing ad attr: %+v", ev)
		}
		if _, ok := ev.Attrs["gainMicro"]; !ok {
			t.Fatalf("commit event missing gainMicro attr: %+v", ev)
		}
	}
	if commits == 0 || int64(commits) != allocSpan.Attrs["rounds"] {
		t.Fatalf("explain produced %d commit events for %d rounds", commits, allocSpan.Attrs["rounds"])
	}

	// Without explain, the same traced request yields no commit events.
	noExplain := fig1Request()
	tracedAllocate(t, ts.URL, "alloc-noexplain-trace", noExplain)
	td = fetchTrace(t, ts.URL, "alloc-noexplain-trace")
	for _, s := range td.Spans {
		for _, ev := range s.Events {
			if ev.Name == "commit" {
				t.Fatal("commit event present without explain")
			}
		}
	}

	// Trace metrics made it onto /metrics.
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`adserver_traces_retained_total{reason="sampled"}`,
		"adserver_trace_spans_total",
		`adserver_build_info{`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// roundPhases are the run ops, the only fan-outs the coordinator times as
// rounds: the round.* span names and the phase labels of
// adserver_coordinator_round_seconds.
var roundPhases = []string{"pilot", "start", "commit", "credit", "grow", "gains"}

// TestShardedTraceTree runs a force-sampled allocation through a real
// 2-shard HTTP cluster and asserts the distributed span tree the tentpole
// promises: one trace linking the server span → alloc → coordinator
// rounds → per-shard RPCs, retrievable from the coordinator; and the
// shard daemons retain their own server spans under the same trace id
// with the coordinator's RPC span as remote parent.
func TestShardedTraceTree(t *testing.T) {
	params := spreadParams
	c := newTracedCluster(t, params, 2)

	tracedAllocate(t, c.front.URL, "sharded-trace", AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{MinTheta: 1024, MaxTheta: 4096},
	})

	td := fetchTrace(t, c.front.URL, "sharded-trace")
	names := spanNames(td)
	byID := map[string]obs.SpanData{}
	for _, s := range td.Spans {
		byID[s.ID] = s
	}
	if names["http.allocate"] != 1 || names["alloc"] != 1 {
		t.Fatalf("missing server/alloc spans: %v", names)
	}
	rounds, rpcs := 0, 0
	for _, s := range td.Spans {
		if phase, ok := strings.CutPrefix(s.Name, "round."); ok {
			rounds++
			if !slices.Contains(roundPhases, phase) {
				t.Fatalf("span %s: only the run ops %v are rounds", s.Name, roundPhases)
			}
			parent, ok := byID[s.Parent]
			if !ok || parent.Name != "alloc" {
				t.Fatalf("round span %s parented under %q, want alloc", s.Name, parent.Name)
			}
		}
		if strings.HasPrefix(s.Name, "rpc.") {
			rpcs++
			parent, ok := byID[s.Parent]
			if !ok || !strings.HasPrefix(parent.Name, "round.") {
				t.Fatalf("rpc span %s parented under %q, want a round.* span", s.Name, parent.Name)
			}
			if s.Strs["replica"] == "" {
				t.Fatalf("rpc span %s missing replica label", s.Name)
			}
		}
	}
	if rounds == 0 || rpcs == 0 {
		t.Fatalf("distributed tree has %d round and %d rpc spans: %v", rounds, rpcs, names)
	}

	// Each shard daemon retained its own server spans for the trace, with
	// a coordinator-side RPC span as the remote parent.
	for i, sh := range c.shards {
		std := fetchTrace(t, sh.URL, "sharded-trace")
		if len(std.Spans) == 0 || !strings.HasPrefix(std.Spans[0].Name, "http.shard_") {
			t.Fatalf("shard %d trace root %+v, want http.shard_*", i, std.Spans)
		}
		if std.Spans[0].Parent == "" {
			t.Fatalf("shard %d server span has no remote parent", i)
		}
	}

	// A traced POST /ads warms the new ad: its pilot is a round, the ensure
	// fan-out after it is not.
	add := AddAdRequest{InstanceParams: params, Ad: NewAdSpec{Name: "promo", Budget: 4, CPE: 1, CTP: 0.5}}
	tracedPost(t, c.front.URL+"/ads", "sharded-add", add, new(LifecycleResponse))
	names = spanNames(fetchTrace(t, c.front.URL, "sharded-add"))
	if names["rpc.ensure"] == 0 {
		t.Fatalf("traced add sent no ensure: %v", names)
	}
	for name := range names {
		if phase, ok := strings.CutPrefix(name, "round."); ok && !slices.Contains(roundPhases, phase) {
			t.Errorf("span %s: only the run ops %v are rounds", name, roundPhases)
		}
	}
}

// TestFailoverTraceRetained pins tail-based retention on the failure path
// the tracer exists for: kill the preferred replica of a range, allocate
// once, and the trace — retained without any sampling flag, purely by its
// tail signals — must show the retry events against the dead replica, the
// errored RPC span, and the failover event booked when the surviving
// replica took over the range.
func TestFailoverTraceRetained(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}
	front, _, backends := replicatedServer(t, params, 2, 2)
	req := AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{MinTheta: 1024, MaxTheta: 4096},
	}
	// Warm the cluster so the traced run isolates the failover itself.
	if code := postJSON(t, front.URL+"/allocate", req, nil); code != http.StatusOK {
		t.Fatalf("warm allocate: %d", code)
	}
	backends[0].Close()

	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, front.URL+"/allocate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.TraceHeader, "failover-trace")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate after replica kill: %d", resp.StatusCode)
	}

	td := fetchTrace(t, front.URL, "failover-trace")
	if td.Reason != "error" && td.Reason != "failover" {
		t.Fatalf("failover trace retained as %q, want a tail reason", td.Reason)
	}
	var retries, failovers, rpcErrs int
	for _, s := range td.Spans {
		if s.Error != "" && strings.HasPrefix(s.Name, "rpc.") {
			rpcErrs++
		}
		for _, ev := range s.Events {
			switch {
			case strings.HasPrefix(ev.Name, "retry."):
				retries++
			case ev.Name == "failover":
				failovers++
				if ev.Attrs["from"] != 0 {
					t.Fatalf("failover event blames replica %d, want 0: %+v", ev.Attrs["from"], ev)
				}
			}
		}
	}
	if failovers == 0 || retries == 0 || rpcErrs == 0 {
		t.Fatalf("trace shows %d failover events, %d retries, %d errored RPC spans; want all > 0",
			failovers, retries, rpcErrs)
	}

	// The retention shows up on /metrics too.
	body := scrapeMetrics(t, front.URL)
	if !strings.Contains(body, `adserver_traces_retained_total{reason="`+td.Reason+`"}`) {
		t.Errorf("/metrics missing retained_total for reason %q", td.Reason)
	}
}
