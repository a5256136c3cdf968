package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowConfig retains nothing by tail rules except what the test forces:
// the latency threshold is unreachable and head sampling keeps only the
// very first unremarkable trace per SampleEvery window.
func slowConfig(capacity, every int) TracerConfig {
	return TracerConfig{Capacity: capacity, LatencyThreshold: time.Hour, SampleEvery: every}
}

// sampled returns a context that forces retention (reason "sampled") for
// the next root span started from it.
func sampled(ctx context.Context) context.Context {
	return WithRemote(ctx, SpanContext{Flags: FlagSampled})
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer(slowConfig(4, 1))
	ctx := WithTrace(context.Background(), "trace-tree")
	ctx, root := tr.StartSpan(ctx, "http.allocate")
	root.SetStr("method", "POST")
	root.SetInt("status", 200)

	cctx, alloc := StartSpan(ctx, "alloc")
	alloc.Event("commit", Int("round", 1), Int("ad", 3))
	alloc.AddChild("phase.estimate", 0, time.Millisecond, Int("rounds", 2))
	_, rpc := StartSpan(cctx, "rpc.cover")
	rpc.SetStr("replica", "0/1")
	rpc.End()
	alloc.End()
	root.End()

	td, ok := tr.Get("trace-tree")
	if !ok {
		t.Fatal("trace not retained")
	}
	if td.Root != "http.allocate" || len(td.Spans) != 4 {
		t.Fatalf("got root %q, %d spans, want http.allocate with 4", td.Root, len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	rootSD := byName["http.allocate"]
	if rootSD.Parent != "" || rootSD.Strs["method"] != "POST" || rootSD.Attrs["status"] != 200 {
		t.Fatalf("bad root span: %+v", rootSD)
	}
	allocSD := byName["alloc"]
	if allocSD.Parent != rootSD.ID {
		t.Fatalf("alloc parent = %q, want root %q", allocSD.Parent, rootSD.ID)
	}
	if len(allocSD.Events) != 1 || allocSD.Events[0].Name != "commit" || allocSD.Events[0].Attrs["ad"] != 3 {
		t.Fatalf("bad alloc events: %+v", allocSD.Events)
	}
	if byName["rpc.cover"].Parent != allocSD.ID || byName["rpc.cover"].Strs["replica"] != "0/1" {
		t.Fatalf("bad rpc span: %+v", byName["rpc.cover"])
	}
	phase := byName["phase.estimate"]
	if phase.Parent != allocSD.ID || phase.DurNs != time.Millisecond.Nanoseconds() || phase.Attrs["rounds"] != 2 {
		t.Fatalf("bad synthetic child: %+v", phase)
	}
	for i := 1; i < len(td.Spans); i++ {
		if td.Spans[i-1].StartNs > td.Spans[i].StartNs {
			t.Fatalf("spans not sorted by start: %d before %d", td.Spans[i-1].StartNs, td.Spans[i].StartNs)
		}
	}
}

func TestNilSpanSafety(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("span without a tracer should be nil")
	}
	// Every method must be a no-op on nil, including via a nil tracer.
	var nilTracer *Tracer
	ctx, span = nilTracer.StartSpan(ctx, "still-orphan")
	span.SetInt("k", 1)
	span.SetStr("k", "v")
	span.Event("e", Int("a", 2))
	span.SetError("boom")
	span.Retain(RetainFailover)
	span.AddChild("c", 0, time.Millisecond)
	span.EndErr(nil)
	span.End()
	if span.TraceID() != "" || span.ID() != "" || span.Sampled() {
		t.Fatal("nil span should report zero values")
	}
	if ContextSpan(ctx) != nil {
		t.Fatal("nil span must not be stored in context")
	}
	if got := nilTracer.Summaries(0, false, 0); got != nil {
		t.Fatalf("nil tracer summaries = %v", got)
	}
}

func TestRetentionReasons(t *testing.T) {
	tr := NewTracer(slowConfig(16, 1_000_000))
	start := func(id string) (context.Context, *Span) {
		return tr.StartSpan(WithTrace(context.Background(), id), "op")
	}

	// First unremarkable trace is the head sample...
	_, s := start("head")
	s.End()
	// ...the next ones drop.
	_, s = start("dropped")
	s.End()

	ctx, s := start("with-error")
	_, c := StartSpan(ctx, "child")
	c.EndErr(fmt.Errorf("rpc exploded"))
	s.End()

	ctx, s = start("with-failover")
	_, c = StartSpan(ctx, "child")
	c.Retain(RetainFailover)
	c.End()
	s.End()

	ctx, s = start("with-retry")
	_, c = StartSpan(ctx, "child")
	c.Retain(RetainRetry)
	c.End()
	s.End()

	_, s = tr.StartSpan(sampled(WithTrace(context.Background(), "flagged")), "op")
	if !s.Sampled() {
		t.Fatal("remote sampled flag not adopted")
	}
	s.End()

	want := map[string]string{
		"head":          "head",
		"with-error":    "error",
		"with-failover": "failover",
		"with-retry":    "retry",
		"flagged":       "sampled",
	}
	for id, reason := range want {
		td, ok := tr.Get(id)
		if !ok {
			t.Fatalf("trace %s not retained", id)
		}
		if td.Reason != reason {
			t.Errorf("trace %s retained as %q, want %q", id, td.Reason, reason)
		}
	}
	if _, ok := tr.Get("dropped"); ok {
		t.Fatal("unremarkable trace should have been dropped")
	}
	// Error beats every other signal when several fire at once.
	ctx, s = tr.StartSpan(sampled(WithTrace(context.Background(), "multi")), "op")
	_, c = StartSpan(ctx, "child")
	c.Retain(RetainRetry)
	c.SetError("also failed")
	c.End()
	s.End()
	if td, _ := tr.Get("multi"); td.Reason != "error" {
		t.Fatalf("multi-signal trace retained as %q, want error", td.Reason)
	}
}

func TestLatencyRetention(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4, LatencyThreshold: time.Nanosecond, SampleEvery: 1 << 30})
	_, s := tr.StartSpan(WithTrace(context.Background(), "slow"), "op")
	time.Sleep(time.Millisecond)
	s.End()
	td, ok := tr.Get("slow")
	if !ok || td.Reason != "latency" {
		t.Fatalf("slow trace: ok=%v reason=%q, want latency", ok, td.Reason)
	}
	if td.DurNs <= 0 {
		t.Fatalf("non-positive duration %d", td.DurNs)
	}
}

func TestHeadSampleEveryNth(t *testing.T) {
	tr := NewTracer(slowConfig(16, 4))
	for i := 0; i < 9; i++ {
		_, s := tr.StartSpan(WithTrace(context.Background(), fmt.Sprintf("t%d", i)), "op")
		s.End()
	}
	var kept []string
	for _, sum := range tr.Summaries(0, false, 0) {
		kept = append(kept, sum.ID)
	}
	// Newest-first listing of the 1st, 5th, and 9th unremarkable traces.
	want := []string{"t8", "t4", "t0"}
	if strings.Join(kept, ",") != strings.Join(want, ",") {
		t.Fatalf("head sample kept %v, want %v", kept, want)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(slowConfig(3, 1))
	for i := 0; i < 5; i++ {
		_, s := tr.StartSpan(WithTrace(context.Background(), fmt.Sprintf("t%d", i)), "op")
		s.End()
	}
	var got []string
	for _, sum := range tr.Summaries(0, false, 0) {
		got = append(got, sum.ID)
	}
	want := []string{"t4", "t3", "t2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ring holds %v, want newest-first %v", got, want)
	}
	if _, ok := tr.Get("t0"); ok {
		t.Fatal("oldest trace should have been evicted")
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 2, MaxSpans: 3, LatencyThreshold: time.Hour, SampleEvery: 1})
	ctx, root := tr.StartSpan(WithTrace(context.Background(), "big"), "root")
	for i := 0; i < 10; i++ {
		_, c := StartSpan(ctx, fmt.Sprintf("c%d", i))
		c.End()
	}
	root.End()
	td, ok := tr.Get("big")
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want MaxSpans cap of 3", len(td.Spans))
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	tr := NewTracer(slowConfig(2, 1))
	ctx := sampled(WithTrace(context.Background(), "wire-trace"))
	ctx, span := tr.StartSpan(ctx, "client")
	h := http.Header{}
	Inject(ctx, h.Set)
	if h.Get(TraceHeader) != "wire-trace" || h.Get(SpanHeader) != span.ID() || h.Get(FlagsHeader) != "1" {
		t.Fatalf("bad injected headers: %v", h)
	}
	sc, ok := ExtractSpanContext(h)
	if !ok || sc.TraceID != "wire-trace" || sc.SpanID != span.ID() || sc.Flags != FlagSampled {
		t.Fatalf("extract = %+v ok=%v", sc, ok)
	}
	// traceparent-style two-digit flags are accepted too.
	h.Set(FlagsHeader, "01")
	if sc, _ = ExtractSpanContext(h); sc.Flags != FlagSampled {
		t.Fatalf("flags %q not parsed, got %+v", "01", sc)
	}
	span.End()

	// A server-side root under the extracted context joins the same trace
	// under the remote parent span.
	srv := NewTracer(slowConfig(2, 1))
	_, server := srv.StartSpan(WithRemote(context.Background(), sc), "server")
	if server.TraceID() != "wire-trace" || !server.Sampled() {
		t.Fatalf("server root traceID=%q sampled=%v", server.TraceID(), server.Sampled())
	}
	server.End()
	td, ok := srv.Get("wire-trace")
	if !ok || td.Spans[0].Parent != span.ID() {
		t.Fatalf("server span parent = %q, want remote %q (ok=%v)", td.Spans[0].Parent, span.ID(), ok)
	}
}

func TestStrAttrBounds(t *testing.T) {
	tr := NewTracer(slowConfig(2, 1))
	_, s := tr.StartSpan(WithTrace(context.Background(), "bounds"), "op")
	long := strings.Repeat("x", 1000)
	s.SetStr("long", long)
	for i := 0; i < 50; i++ {
		s.SetStr(fmt.Sprintf("k%d", i), "v")
	}
	s.End()
	td, _ := tr.Get("bounds")
	sd := td.Spans[0]
	if len(sd.Strs["long"]) >= len(long) {
		t.Fatalf("string attr not truncated: %d bytes", len(sd.Strs["long"]))
	}
	if len(sd.Strs) > 8 {
		t.Fatalf("%d string attrs survived, want the per-span cap", len(sd.Strs))
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(slowConfig(8, 1))
	reg := NewRegistry()
	tr.EnableMetrics(reg, "test")

	ctx, root := tr.StartSpan(sampled(WithTrace(context.Background(), "handled")), "http.allocate")
	_, c := StartSpan(ctx, "alloc")
	c.End()
	root.End()
	_, bad := tr.StartSpan(WithTrace(context.Background(), "broken"), "http.allocate")
	bad.EndErr(fmt.Errorf("exploded"))

	h := tr.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	var sums []TraceSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil || len(sums) != 2 {
		t.Fatalf("list: err=%v n=%d body=%s", err, len(sums), rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?error=1", nil))
	sums = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil || len(sums) != 1 || sums[0].ID != "broken" {
		t.Fatalf("error filter: err=%v sums=%+v", err, sums)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/handled", nil))
	var td TraceData
	if err := json.Unmarshal(rr.Body.Bytes(), &td); err != nil || len(td.Spans) != 2 || td.Reason != "sampled" {
		t.Fatalf("get: err=%v td=%+v", err, td)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/nope", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("missing trace returned %d", rr.Code)
	}

	// The tracer's own metrics pass the strict exposition lint (scrape
	// lints internally).
	text := scrape(t, reg)
	for _, want := range []string{
		"test_trace_spans_total 3",
		`test_traces_retained_total{reason="sampled"} 1`,
		`test_traces_retained_total{reason="error"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentSpans hammers one tracer from many goroutines — concurrent
// root creation, child fan-out, events, and scrapes — while the race
// detector watches. Counts are asserted loosely; the invariant under test
// is safety, not scheduling.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(slowConfig(8, 1))
	h := tr.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ctx := WithTrace(context.Background(), fmt.Sprintf("g%d-%d", g, i))
				ctx, root := tr.StartSpan(ctx, "root")
				var kids sync.WaitGroup
				for k := 0; k < 4; k++ {
					kids.Add(1)
					go func(k int) {
						defer kids.Done()
						_, c := StartSpan(ctx, fmt.Sprintf("child%d", k))
						c.SetInt("k", int64(k))
						c.Event("tick", Int("i", int64(i)))
						c.End()
					}(k)
				}
				kids.Wait()
				root.End()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Summaries(0, false, 4)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
			}
		}()
	}
	wg.Wait()
	sums := tr.Summaries(0, false, 0)
	if len(sums) != 8 {
		t.Fatalf("ring holds %d traces, want full capacity 8", len(sums))
	}
	for _, sum := range sums {
		if sum.Spans != 5 {
			t.Fatalf("trace %s has %d spans, want 5", sum.ID, sum.Spans)
		}
	}
}

func TestGaugeVecMaxChildrenAndDelete(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_estimate", "Per-ad estimate.", "ad")
	v.SetMaxChildren(2)
	v.With("a").Set(1)
	v.With("b").Set(2)
	v.With("c").Set(3) // over the cap: detached, never exposed
	text := scrape(t, reg)
	if !strings.Contains(text, `test_estimate{ad="a"} 1`) || !strings.Contains(text, `test_estimate{ad="b"} 2`) {
		t.Fatalf("capped vec lost real children:\n%s", text)
	}
	if strings.Contains(text, `ad="c"`) {
		t.Fatalf("over-cap child leaked into exposition:\n%s", text)
	}
	// Existing children keep working at the cap.
	v.With("a").Set(10)
	if !strings.Contains(scrape(t, reg), `test_estimate{ad="a"} 10`) {
		t.Fatal("existing child stopped updating at cap")
	}
	// Deleting frees a slot for a new child.
	v.Delete("a")
	v.With("d").Set(4)
	text = scrape(t, reg)
	if strings.Contains(text, `ad="a"`) {
		t.Fatalf("deleted child still exposed:\n%s", text)
	}
	if !strings.Contains(text, `test_estimate{ad="d"} 4`) {
		t.Fatalf("slot freed by Delete not reusable:\n%s", text)
	}
}
