// HTTP server instrumentation: one middleware that meters every request
// (per-endpoint count/latency/status), establishes the trace context
// (extracting X-Trace-Id or minting one), echoes the id on the response,
// and emits a structured key=value request log line.

package obs

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTPMetrics is the per-endpoint request telemetry Instrument records.
type HTTPMetrics struct {
	// Requests counts completed requests by endpoint and status code.
	Requests *CounterVec
	// Latency is the per-endpoint request duration histogram in seconds.
	Latency *HistogramVec
}

// NewHTTPMetrics registers the standard request metrics under
// prefix_http_requests_total and prefix_http_request_seconds.
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec(prefix+"_http_requests_total",
			"Completed HTTP requests by endpoint and status code.", "endpoint", "code"),
		Latency: r.HistogramVec(prefix+"_http_request_seconds",
			"HTTP request duration in seconds by endpoint.", DefBuckets, "endpoint"),
	}
}

// InstrumentOptions shapes the Instrument middleware.
type InstrumentOptions struct {
	// Component tags the log lines (component=adserver, component=adshard).
	Component string
	// Logf receives one structured key=value line per request; nil
	// disables request logging (metrics and trace propagation still run).
	Logf func(format string, args ...any)
	// Endpoint maps a request's route onto its metric label and span name.
	// The route is the pattern that serves the request when the wrapped
	// handler is an *http.ServeMux — a request the mux does not route is
	// labelled "unmatched" without asking — and the request path otherwise.
	// It must return a bounded set of values over the mux's patterns: label
	// cardinality is forever. Nil uses the first path segment ("/ads/" →
	// "ads").
	Endpoint func(route string) string
	// Tracer, when set, opens one server span ("http.<endpoint>") per
	// request, adopting the remote parent declared by X-Span-Id /
	// X-Trace-Flags; nil keeps the flat trace-id behaviour.
	Tracer *Tracer
}

// Instrument wraps next so every request is metered into m, carries a
// trace id in its context (minted unless the client sent X-Trace-Id), has
// that id echoed on the response, and is logged as one key=value line.
func Instrument(next http.Handler, m *HTTPMetrics, o InstrumentOptions) http.Handler {
	endpoint := o.Endpoint
	if endpoint == nil {
		endpoint = DefaultEndpoint
	}
	route := func(r *http.Request) string { return r.URL.Path }
	if mux, ok := next.(*http.ServeMux); ok {
		route = func(r *http.Request) string {
			_, pattern := mux.Handler(r)
			return pattern
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := r.Header.Get(TraceHeader)
		if trace == "" {
			trace = NewTraceID()
		}
		w.Header().Set(TraceHeader, trace)
		ctx := WithTrace(r.Context(), trace)
		ep := "unmatched"
		if rt := route(r); rt != "" {
			ep = endpoint(rt)
		}
		var span *Span
		if o.Tracer != nil {
			if sc, ok := ExtractSpanContext(r.Header); ok {
				ctx = WithRemote(ctx, sc)
			}
			ctx, span = o.Tracer.StartSpan(ctx, "http."+ep)
			span.SetStr("method", r.Method)
			span.SetStr("path", r.URL.Path)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		seconds := time.Since(start).Seconds()
		if span != nil {
			span.SetInt("status", int64(sw.code))
			if sw.code >= http.StatusInternalServerError {
				span.SetError("http " + strconv.Itoa(sw.code))
			}
			span.End()
		}
		m.Requests.With(ep, strconv.Itoa(sw.code)).Inc()
		m.Latency.With(ep).Observe(seconds)
		if o.Logf != nil {
			o.Logf("component=%s trace=%s method=%s path=%s status=%d durMs=%.3f",
				o.Component, trace, r.Method, r.URL.Path, sw.code, seconds*1e3)
		}
	})
}

// DefaultEndpoint is Instrument's default label mapping: the route's first
// path segment, or "root" for "/".
func DefaultEndpoint(route string) string {
	p := strings.TrimPrefix(route, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		return "root"
	}
	return p
}

// statusWriter captures the response status code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap returns the underlying writer, which is how http.ResponseController
// reaches the connection through the middleware (per-request deadlines,
// hijacking).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer when it streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
