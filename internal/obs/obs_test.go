package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out)
	}
	return out
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.")
	c.Add(41)
	c.Inc()
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	r.CounterFunc("test_derived_total", "Derived.", func() uint64 { return 7 })
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_events_total Events.\n# TYPE test_events_total counter\ntest_events_total 42\n",
		"# TYPE test_depth gauge\ntest_depth 2.5\n",
		"test_derived_total 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 42 {
		t.Errorf("counter value %d, want 42", c.Value())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_sum 5.605`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 || h.Sum() != 5.605 {
		t.Errorf("count %d sum %v, want 5 and 5.605", h.Count(), h.Sum())
	}
}

func TestVecChildrenSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "Requests.", "endpoint", "code")
	v.With("zeta", "200").Add(3)
	v.With("alpha", "404").Inc()
	v.With(`quo"te`, "200").Inc()
	hv := r.HistogramVec("test_lat_seconds", "Latency.", []float64{0.5}, "endpoint")
	hv.With("a").Observe(0.1)
	hv.With("b").Observe(0.7)
	out := scrape(t, r)
	alpha := strings.Index(out, `test_req_total{endpoint="alpha",code="404"} 1`)
	zeta := strings.Index(out, `test_req_total{endpoint="zeta",code="200"} 3`)
	if alpha < 0 || zeta < 0 || alpha > zeta {
		t.Errorf("vec children missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `endpoint="quo\"te"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_lat_seconds_bucket{endpoint="b",le="0.5"} 0`) ||
		!strings.Contains(out, `test_lat_seconds_bucket{endpoint="b",le="+Inf"} 1`) {
		t.Errorf("labeled histogram buckets wrong:\n%s", out)
	}
	if got := v.With("alpha", "404").Value() + v.With("zeta", "200").Value(); got != 4 {
		t.Errorf("children read back %d events, want 4", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "Latency.", DefBuckets)
	c := r.Counter("test_conc_total", "Events.")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Errorf("count %d / %d, want 8000", h.Count(), c.Value())
	}
	scrape(t, r)
}

func TestRegistryShapePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "Dup.")
	mustPanic("duplicate name", func() { r.Counter("dup_total", "Dup.") })
	mustPanic("invalid name", func() { r.Counter("1bad", "Bad.") })
	mustPanic("unsorted buckets", func() { r.Histogram("h_seconds", "H.", []float64{1, 0.5}) })
	v := r.CounterVec("lab_total", "Lab.", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if Trace(ctx) != "" {
		t.Fatal("empty context carries a trace id")
	}
	ctx = WithTrace(ctx, "abc123")
	if got := Trace(ctx); got != "abc123" {
		t.Fatalf("Trace = %q, want abc123", got)
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestInstrumentMiddleware(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "test")
	var lines []string
	var gotCtxTrace string
	var deadlineErr error
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		gotCtxTrace = Trace(req.Context())
		// The middleware's writer must unwrap to the connection's, or a
		// handler cannot bound its own write.
		deadlineErr = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute))
		if req.URL.Path == "/missing" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}), m, InstrumentOptions{
		Component: "testd",
		Logf:      func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Minted trace id: none sent, one must come back and reach the handler.
	resp, err := http.Get(ts.URL + "/allocate/sub")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(TraceHeader)
	if minted == "" || minted != gotCtxTrace {
		t.Fatalf("minted trace %q, handler saw %q", minted, gotCtxTrace)
	}
	if deadlineErr != nil {
		t.Fatalf("SetWriteDeadline through the middleware: %v", deadlineErr)
	}

	// Propagated trace id: the caller's id wins and round-trips.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/missing", nil)
	req.Header.Set(TraceHeader, "deadbeef00000000")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "deadbeef00000000" {
		t.Fatalf("propagated trace came back as %q", got)
	}
	if gotCtxTrace != "deadbeef00000000" {
		t.Fatalf("handler saw trace %q", gotCtxTrace)
	}

	out := scrape(t, r)
	for _, want := range []string{
		`test_http_requests_total{endpoint="allocate",code="200"} 1`,
		`test_http_requests_total{endpoint="missing",code="404"} 1`,
		`test_http_request_seconds_count{endpoint="allocate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "component=testd") ||
		!strings.Contains(lines[0], "trace="+minted) ||
		!strings.Contains(lines[0], "status=200") {
		t.Errorf("log line %q missing fields", lines[0])
	}
	if !strings.Contains(lines[1], "trace=deadbeef00000000") || !strings.Contains(lines[1], "status=404") {
		t.Errorf("log line %q missing fields", lines[1])
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "T.").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if err := Lint(resp.Body); err != nil {
		t.Fatal(err)
	}
}

// histHeader is a well-formed histogram family declaration shared by the
// malformed-exposition table below.
const histHeader = "# HELP h_seconds H.\n# TYPE h_seconds histogram\n"

// TestLintRejectsMalformedExposition is the table-driven contract for the
// checker: every way this package could corrupt an exposition (or a
// hand-rolled one could lie to a scraper) is rejected with a diagnostic
// that names the problem.
func TestLintRejectsMalformedExposition(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // substring of the lint error; "" means must pass
	}{
		{"valid counter", "# HELP c_total C.\n# TYPE c_total counter\nc_total 3\n", ""},
		{"valid negative gauge", "# HELP g G.\n# TYPE g gauge\ng -1.5\n", ""},
		{"valid histogram", histHeader +
			`h_seconds_bucket{le="0.1"} 3` + "\n" + `h_seconds_bucket{le="+Inf"} 5` + "\n" +
			"h_seconds_sum 1.2\nh_seconds_count 5\n", ""},
		{"no TYPE", "some_total 3\n", "no # TYPE"},
		{"no HELP", "# TYPE c_total counter\nc_total 3\n", "no # HELP"},
		{"malformed TYPE line", "# TYPE c_total\nc_total 3\n", "malformed TYPE"},
		{"unknown metric type", "# TYPE c_total widget\nc_total 3\n", "unknown metric type"},
		{"negative counter", "# HELP c_total C.\n# TYPE c_total counter\nc_total -1\n", "non-counter value"},
		{"infinite counter", "# HELP c_total C.\n# TYPE c_total counter\nc_total +Inf\n", "non-counter value"},
		{"NaN counter", "# HELP c_total C.\n# TYPE c_total counter\nc_total NaN\n", "non-counter value"},
		{"non-numeric value", "# HELP g G.\n# TYPE g gauge\ng abc\n", "non-numeric value"},
		{"missing value", "# HELP g G.\n# TYPE g gauge\ng\n", "malformed sample"},
		{"invalid metric name", "# HELP g G.\n# TYPE g gauge\n" + `bad-name 1` + "\n", "invalid metric name"},
		{"unbalanced braces", "# HELP g G.\n# TYPE g gauge\n" + `g{a="b" 1` + "\n", "unbalanced braces"},
		{"bucket without le", histHeader + `h_seconds_bucket{shard="0"} 1` + "\n", "without le"},
		{"malformed label", histHeader + `h_seconds_bucket{le="0.1",oops} 1` + "\n", "malformed label"},
		{"bad le bound", histHeader + `h_seconds_bucket{le="wide"} 1` + "\n", "bad le"},
		{"bucket bounds not increasing", histHeader +
			`h_seconds_bucket{le="0.5"} 1` + "\n" + `h_seconds_bucket{le="0.1"} 2` + "\n",
			"bounds not increasing"},
		{"non-cumulative buckets", histHeader +
			`h_seconds_bucket{le="0.1"} 5` + "\n" + `h_seconds_bucket{le="+Inf"} 3` + "\n" +
			"h_seconds_sum 1\nh_seconds_count 3\n", "not cumulative"},
		{"missing +Inf bucket", histHeader +
			`h_seconds_bucket{le="0.1"} 5` + "\n" + "h_seconds_sum 1\nh_seconds_count 5\n",
			"no +Inf bucket"},
		{"+Inf disagrees with count", histHeader +
			`h_seconds_bucket{le="+Inf"} 4` + "\n" + "h_seconds_sum 1\nh_seconds_count 5\n",
			"+Inf bucket 4 != count 5"},
		{"buckets but no count", histHeader + `h_seconds_bucket{le="+Inf"} 4` + "\n",
			"buckets but no _count"},
		{"NaN sum", histHeader +
			`h_seconds_bucket{le="+Inf"} 0` + "\n" + "h_seconds_sum NaN\nh_seconds_count 0\n",
			"is NaN"},
		{"stray histogram sample", histHeader + "h_seconds 1\n", "stray sample"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Lint(strings.NewReader(tc.in))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("lint rejected valid exposition: %v\n%s", err, tc.in)
				}
				return
			}
			if err == nil {
				t.Fatalf("lint accepted malformed exposition:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("lint error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestGaugeVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("test_estimate", "Estimates.", "ad")
	v.With("zeta").Set(0.75)
	v.With("alpha").Set(0.25)
	v.With("alpha").Set(0.5) // same child, last write wins
	out := scrape(t, r)
	alpha := strings.Index(out, `test_estimate{ad="alpha"} 0.5`)
	zeta := strings.Index(out, `test_estimate{ad="zeta"} 0.75`)
	if alpha < 0 || zeta < 0 || alpha > zeta {
		t.Errorf("gauge vec children missing or unsorted:\n%s", out)
	}
	if a, z := v.With("alpha").Value(), v.With("zeta").Value(); a != 0.5 || z != 0.75 {
		t.Errorf("children read back %v and %v", a, z)
	}
}
