// Span-level tracing: a dependency-free span tree per trace id, assembled
// in-process and retained tail-based — the trace is kept or dropped only
// once its root span ends and the whole story (latency, errors, retries,
// failovers) is known. Span context travels in context.Context inside a
// process and in X-Trace-Id / X-Span-Id / X-Trace-Flags between daemons,
// riding the same propagation path the flat trace ids already use.
//
// Design constraints, matching the rest of internal/obs:
//
//   - Zero cost when unused: StartSpan with no tracer and no parent in ctx
//     returns a nil *Span, and every Span method is nil-receiver safe, so
//     instrumented call sites pay one context lookup and nothing else.
//   - Never perturb the work: spans observe — timestamps are monotonic
//     (time.Time's monotonic reading), attributes are integers plus
//     bounded strings, and nothing feeds back into allocation state.
//   - Deterministic retention: the only non-forced retention path is a
//     counter-based head sample (every Nth trace), never randomness, so
//     tests can pin exactly which traces survive a pinned workload.

package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanHeader is the HTTP header the parent span id travels in between
// daemons (alongside TraceHeader, which carries the trace id).
const SpanHeader = "X-Span-Id"

// FlagsHeader is the HTTP header trace flags travel in; "1" (or "01",
// traceparent-style) marks the trace as explicitly sampled.
const FlagsHeader = "X-Trace-Flags"

// FlagSampled marks a trace as explicitly sampled: the tail-retention
// decision always keeps it, whatever its latency or outcome.
const FlagSampled uint8 = 1

// RetainReason says why a finished trace was kept (or, for RetainNone,
// dropped). Reasons are ordered by precedence: a trace that both erred and
// ran long reports "error".
type RetainReason uint8

// Retention reasons, in precedence order.
const (
	// RetainNone marks a dropped trace.
	RetainNone RetainReason = iota
	// RetainError: some span ended with an error.
	RetainError
	// RetainFailover: a replica failover event was recorded.
	RetainFailover
	// RetainRetry: an RPC retry event was recorded.
	RetainRetry
	// RetainLatency: the root span exceeded the tracer's threshold.
	RetainLatency
	// RetainSampled: the trace carried FlagSampled (X-Trace-Flags: 1).
	RetainSampled
	// RetainHead: kept by the deterministic 1-in-N head sample.
	RetainHead
)

// String renders the reason as its metric label.
func (r RetainReason) String() string {
	switch r {
	case RetainError:
		return "error"
	case RetainFailover:
		return "failover"
	case RetainRetry:
		return "retry"
	case RetainLatency:
		return "latency"
	case RetainSampled:
		return "sampled"
	case RetainHead:
		return "head"
	default:
		return "none"
	}
}

// SpanContext is the wire form of a span's identity — what Inject writes
// into outgoing headers and the Instrument middleware reads back.
type SpanContext struct {
	// TraceID is the 16-hex trace id (TraceHeader).
	TraceID string
	// SpanID is the parent span id (SpanHeader).
	SpanID string
	// Flags carries the trace flags (FlagsHeader); see FlagSampled.
	Flags uint8
}

// Attr is one integer span or event attribute.
type Attr struct {
	// Key names the attribute.
	Key string
	// Val is the attribute value.
	Val int64
}

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Val: val} }

// Per-span bounds: attributes and events beyond these are dropped, and
// string values are truncated, so a hostile or looping caller cannot grow
// a span without limit.
const (
	maxSpanAttrs    = 16
	maxSpanStrAttrs = 8
	maxSpanEvents   = 64
	maxStrLen       = 128
)

// TracerConfig shapes a Tracer. The zero value is usable: every field
// defaults via withDefaults.
type TracerConfig struct {
	// Capacity is the ring-buffer size in retained traces (default 256);
	// the oldest retained trace is evicted when a newer one commits.
	Capacity int
	// MaxSpans caps the spans stored per trace (default 512); later spans
	// still time their work but are not recorded.
	MaxSpans int
	// LatencyThreshold tail-retains any trace whose root span ran at least
	// this long (default 250ms).
	LatencyThreshold time.Duration
	// SampleEvery head-samples unremarkable traces deterministically: the
	// 1st, N+1st, 2N+1st, … trace that no tail rule claimed is kept
	// (default 16; 1 keeps everything).
	SampleEvery int
}

// withDefaults fills unset fields with the documented defaults.
func (c TracerConfig) withDefaults() TracerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 250 * time.Millisecond
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	return c
}

// Tracer assembles spans into traces and retains finished traces in a
// fixed-size ring buffer under the tail-based policy. A nil *Tracer is a
// valid no-op tracer.
type Tracer struct {
	cfg TracerConfig

	mu       sync.Mutex
	ring     []*TraceData // fixed size cfg.Capacity; nil slots until warm
	next     int          // ring write cursor
	headSeen uint64       // deterministic head-sample counter

	// Optional metrics, wired by EnableMetrics; nil until then.
	spansTotal *Counter
	retained   *CounterVec
	dropped    *Counter
}

// NewTracer builds a tracer with the given config.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: make([]*TraceData, cfg.Capacity)}
}

// EnableMetrics registers the tracer's exposition families on r:
// {prefix}_trace_spans_total (spans recorded), {prefix}_traces_retained_total
// {reason}, and {prefix}_traces_dropped_total (head-sample discards).
func (t *Tracer) EnableMetrics(r *Registry, prefix string) {
	if t == nil {
		return
	}
	t.spansTotal = r.Counter(prefix+"_trace_spans_total",
		"Spans recorded by the in-process tracer (before trace retention is decided).")
	t.retained = r.CounterVec(prefix+"_traces_retained_total",
		"Finished traces kept by the tail-based retention policy, by reason (error, failover, retry, latency, sampled, head).",
		"reason")
	t.dropped = r.Counter(prefix+"_traces_dropped_total",
		"Finished traces discarded by the deterministic head sample.")
}

// spanKey carries the active *Span in a context.
type spanKey struct{}

// remoteKey carries an extracted remote SpanContext in a context.
type remoteKey struct{}

// WithSpan returns ctx carrying s as the active span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// ContextSpan returns the active span carried by ctx, or nil.
func ContextSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithRemote returns ctx carrying an extracted remote span context — the
// parent identity an incoming request's headers declared.
func WithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, sc)
}

// Remote returns the remote span context carried by ctx, if any.
func Remote(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok
}

// Outgoing returns the span context an RPC sent under ctx carries: the
// active span's trace id, span id and flags or, lacking a span, the bare
// trace id ("" when ctx has none). It is what Inject writes as headers and
// what shard's framed transport writes into each frame.
func Outgoing(ctx context.Context) SpanContext {
	if s := ContextSpan(ctx); s != nil {
		return SpanContext{TraceID: s.TraceID(), SpanID: s.ID(), Flags: s.flags}
	}
	return SpanContext{TraceID: Trace(ctx)}
}

// Inject hands set the outgoing request headers that carry ctx's span
// context (Outgoing) — the client half of propagation, called by
// shard.HTTPClient on every HTTP RPC as it writes the request head. An
// http.Header's Set method is a set.
func Inject(ctx context.Context, set func(key, value string)) {
	sc := Outgoing(ctx)
	if sc.TraceID != "" {
		set(TraceHeader, sc.TraceID)
	}
	if sc.SpanID != "" {
		set(SpanHeader, sc.SpanID)
	}
	if sc.Flags != 0 {
		set(FlagsHeader, strconv.Itoa(int(sc.Flags)))
	}
}

// ExtractSpanContext reads the incoming span context from request headers —
// the server half of propagation, called by the Instrument middleware.
// ok reports whether any span-level header was present (a bare X-Trace-Id
// is handled by the middleware's existing trace extraction).
func ExtractSpanContext(h http.Header) (SpanContext, bool) {
	sc := SpanContext{
		TraceID: h.Get(TraceHeader),
		SpanID:  h.Get(SpanHeader),
	}
	flags := strings.TrimSpace(h.Get(FlagsHeader))
	if flags != "" {
		// Accept both "1" and the traceparent-style "01".
		if v, err := strconv.ParseUint(strings.TrimPrefix(flags, "0"), 10, 8); err == nil {
			sc.Flags = uint8(v)
		}
	}
	return sc, sc.SpanID != "" || sc.Flags != 0
}

// StartSpan starts a child of the span carried by ctx. With no active span
// it is a no-op returning (ctx, nil) — the zero-cost path every
// instrumented call site relies on.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := ContextSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.newChild(name)
	return WithSpan(ctx, child), child
}

// StartSpan starts a span under t: a child of the span in ctx if there is
// one, otherwise a new root span for the trace id in ctx (minting one if
// absent, adopting a remote parent from WithRemote if present). The
// returned context carries the span; a nil tracer returns (ctx, nil).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := ContextSpan(ctx); parent != nil {
		child := parent.newChild(name)
		return WithSpan(ctx, child), child
	}
	traceID := Trace(ctx)
	var parentID string
	var flags uint8
	if sc, ok := Remote(ctx); ok {
		parentID = sc.SpanID
		flags = sc.Flags
		if sc.TraceID != "" {
			traceID = sc.TraceID
		}
	}
	if traceID == "" {
		traceID = NewTraceID()
		ctx = WithTrace(ctx, traceID)
	}
	now := time.Now()
	rec := &traceRec{tracer: t, id: traceID, start: now}
	s := &Span{
		rec:    rec,
		name:   boundStr(name),
		id:     NewTraceID(),
		parent: parentID,
		flags:  flags,
		start:  now,
		root:   true,
	}
	rec.rootName = s.name
	return WithSpan(ctx, s), s
}

// traceRec is one trace being assembled: spans append as they end, and the
// root span's End finalizes the retention decision.
type traceRec struct {
	tracer *Tracer
	id     string
	start  time.Time // wall + monotonic; all offsets are monotonic deltas

	mu        sync.Mutex
	spans     []SpanData
	retain    [RetainHead + 1]bool // tail signals accumulated from spans
	rootName  string
	finalized bool
}

// Span is one node of a trace's span tree. All methods are safe on a nil
// receiver (no-ops), and a single span's methods may be called from the
// goroutine that owns it while siblings run concurrently.
type Span struct {
	rec    *traceRec
	name   string
	id     string
	parent string
	flags  uint8
	start  time.Time
	root   bool

	mu     sync.Mutex
	attrs  []Attr
	strs   [][2]string
	events []EventData
	errMsg string
	ended  bool
}

// newChild derives a child span. Receiver may be nil.
func (s *Span) newChild(name string) *Span {
	if s == nil || s.rec == nil {
		return nil
	}
	return &Span{
		rec:    s.rec,
		name:   boundStr(name),
		id:     NewTraceID(),
		parent: s.id,
		flags:  s.flags,
		start:  time.Now(),
	}
}

// TraceID returns the span's trace id ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.id
}

// ID returns the span id ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Sampled reports whether the trace carries FlagSampled.
func (s *Span) Sampled() bool { return s != nil && s.flags&FlagSampled != 0 }

// SetInt records one integer attribute (bounded; excess attrs drop).
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < maxSpanAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	}
	s.mu.Unlock()
}

// SetStr records one string attribute, truncated to 128 bytes (bounded;
// excess attrs drop).
func (s *Span) SetStr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.strs) < maxSpanStrAttrs {
		s.strs = append(s.strs, [2]string{key, boundStr(val)})
	}
	s.mu.Unlock()
}

// Event records a point-in-time event on the span (bounded; excess events
// drop). Event names double as the waterfall annotation, so keep them
// short and bounded ("retry.timeout", "failover", "commit").
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	at := time.Since(s.rec.start).Nanoseconds()
	s.mu.Lock()
	if len(s.events) < maxSpanEvents {
		ev := EventData{Name: boundStr(name), AtNs: at}
		if len(attrs) > 0 {
			ev.Attrs = make(map[string]int64, len(attrs))
			for _, a := range attrs {
				ev.Attrs[a.Key] = a.Val
			}
		}
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// SetError marks the span failed; the trace is tail-retained with reason
// "error".
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = boundStr(msg)
	s.mu.Unlock()
	s.Retain(RetainError)
}

// Retain raises one tail-retention signal (failover, retry, …) for the
// whole trace; the strongest signal becomes the retention reason.
func (s *Span) Retain(r RetainReason) {
	if s == nil || r == RetainNone || r > RetainHead {
		return
	}
	s.rec.mu.Lock()
	s.rec.retain[r] = true
	s.rec.mu.Unlock()
}

// AddChild records an already-finished synthetic child span — how the
// serve layer turns core's per-phase wall times into waterfall rows.
// offset is relative to s's own start.
func (s *Span) AddChild(name string, offset, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	sd := SpanData{
		ID:      NewTraceID(),
		Parent:  s.id,
		Name:    boundStr(name),
		StartNs: s.start.Sub(s.rec.start).Nanoseconds() + offset.Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	}
	if len(attrs) > 0 {
		sd.Attrs = make(map[string]int64, len(attrs))
		for _, a := range attrs {
			sd.Attrs[a.Key] = a.Val
		}
	}
	s.rec.add(sd)
}

// End finishes the span, recording it into its trace; ending the root span
// finalizes the trace and runs the retention decision. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNs: s.start.Sub(s.rec.start).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
		Error:   s.errMsg,
		Events:  s.events,
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			sd.Attrs[a.Key] = a.Val
		}
	}
	if len(s.strs) > 0 {
		sd.Strs = make(map[string]string, len(s.strs))
		for _, kv := range s.strs {
			sd.Strs[kv[0]] = kv[1]
		}
	}
	s.mu.Unlock()
	s.rec.add(sd)
	if s.root {
		s.rec.finalize(dur, s.flags)
	}
}

// EndErr is End with an error mark when err is non-nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetError(err.Error())
	}
	s.End()
}

// add appends one finished span to the trace, bounded by MaxSpans.
func (r *traceRec) add(sd SpanData) {
	t := r.tracer
	r.mu.Lock()
	if !r.finalized && len(r.spans) < t.cfg.MaxSpans {
		r.spans = append(r.spans, sd)
		if sd.Error != "" {
			r.retain[RetainError] = true
		}
		r.mu.Unlock()
		if t.spansTotal != nil {
			t.spansTotal.Inc()
		}
		return
	}
	r.mu.Unlock()
}

// finalize runs the tail-based retention decision once the root span ends.
func (r *traceRec) finalize(dur time.Duration, flags uint8) {
	t := r.tracer
	r.mu.Lock()
	if r.finalized {
		r.mu.Unlock()
		return
	}
	r.finalized = true
	reason := RetainNone
	for _, cand := range [...]RetainReason{RetainError, RetainFailover, RetainRetry} {
		if r.retain[cand] {
			reason = cand
			break
		}
	}
	if reason == RetainNone && dur >= t.cfg.LatencyThreshold {
		reason = RetainLatency
	}
	if reason == RetainNone && flags&FlagSampled != 0 {
		reason = RetainSampled
	}
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()

	t.mu.Lock()
	if reason == RetainNone {
		// Deterministic head sample: the 1st, N+1st, … unremarkable trace.
		t.headSeen++
		if (t.headSeen-1)%uint64(t.cfg.SampleEvery) == 0 {
			reason = RetainHead
		}
	}
	if reason == RetainNone {
		t.mu.Unlock()
		if t.dropped != nil {
			t.dropped.Inc()
		}
		return
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	t.ring[t.next] = &TraceData{
		ID:            r.id,
		Root:          r.rootName,
		StartUnixNano: r.start.UnixNano(),
		DurNs:         dur.Nanoseconds(),
		Reason:        reason.String(),
		Spans:         spans,
	}
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
	if t.retained != nil {
		t.retained.With(reason.String()).Inc()
	}
}

// EventData is one span event in a trace's JSON rendering.
type EventData struct {
	// Name labels the event ("retry.timeout", "failover", "commit").
	Name string `json:"name"`
	// AtNs is the event's monotonic offset from the trace start.
	AtNs int64 `json:"atNs"`
	// Attrs carries the event's integer attributes.
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// SpanData is one finished span in a trace's JSON rendering.
type SpanData struct {
	// ID is the span id.
	ID string `json:"id"`
	// Parent is the parent span id ("" for the root and for spans whose
	// parent lives in another process).
	Parent string `json:"parent,omitempty"`
	// Name is the span name.
	Name string `json:"name"`
	// StartNs is the span's monotonic offset from the trace start.
	StartNs int64 `json:"startNs"`
	// DurNs is the span's duration in nanoseconds.
	DurNs int64 `json:"durNs"`
	// Attrs carries the integer attributes.
	Attrs map[string]int64 `json:"attrs,omitempty"`
	// Strs carries the bounded string attributes.
	Strs map[string]string `json:"strs,omitempty"`
	// Events carries the span's point-in-time events.
	Events []EventData `json:"events,omitempty"`
	// Error is the span's error message, if it failed.
	Error string `json:"error,omitempty"`
}

// TraceData is one retained trace: the GET /debug/traces/{id} payload.
type TraceData struct {
	// ID is the trace id.
	ID string `json:"id"`
	// Root names the root span.
	Root string `json:"root"`
	// StartUnixNano is the trace's wall-clock start.
	StartUnixNano int64 `json:"startUnixNano"`
	// DurNs is the root span's duration in nanoseconds.
	DurNs int64 `json:"durNs"`
	// Reason says which retention rule kept the trace.
	Reason string `json:"reason"`
	// Spans lists every recorded span, ordered by start offset.
	Spans []SpanData `json:"spans"`
}

// Err reports whether any span of the trace failed.
func (td *TraceData) Err() bool {
	for _, s := range td.Spans {
		if s.Error != "" {
			return true
		}
	}
	return false
}

// TraceSummary is one retained trace's GET /debug/traces row.
type TraceSummary struct {
	// ID is the trace id.
	ID string `json:"id"`
	// Root names the root span.
	Root string `json:"root"`
	// StartUnixNano is the trace's wall-clock start.
	StartUnixNano int64 `json:"startUnixNano"`
	// DurNs is the root span's duration in nanoseconds.
	DurNs int64 `json:"durNs"`
	// Spans counts the recorded spans.
	Spans int `json:"spans"`
	// Error reports whether any span failed.
	Error bool `json:"error"`
	// Reason says which retention rule kept the trace.
	Reason string `json:"reason"`
}

// Summaries lists retained traces newest-first, filtered to those at least
// minDur long (0 keeps all) and, when onlyErr is set, to traces with a
// failed span. limit caps the result (≤ 0 means no cap).
func (t *Tracer) Summaries(minDur time.Duration, onlyErr bool, limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	var out []TraceSummary
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	for i := 0; i < n; i++ {
		td := t.ring[((t.next-1-i)%n+n)%n]
		if td == nil {
			continue
		}
		if td.DurNs < minDur.Nanoseconds() {
			continue
		}
		isErr := td.Err()
		if onlyErr && !isErr {
			continue
		}
		out = append(out, TraceSummary{
			ID:            td.ID,
			Root:          td.Root,
			StartUnixNano: td.StartUnixNano,
			DurNs:         td.DurNs,
			Spans:         len(td.Spans),
			Error:         isErr,
			Reason:        td.Reason,
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Get returns the newest retained trace with the given id.
func (t *Tracer) Get(id string) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	for i := 0; i < n; i++ {
		td := t.ring[((t.next-1-i)%n+n)%n]
		if td != nil && td.ID == id {
			return *td, true
		}
	}
	return TraceData{}, false
}

// Handler serves the trace store over HTTP. Mount it at both
// "/debug/traces" (summaries; query params min_ms, error=1, limit) and
// "/debug/traces/" (full span tree by id suffix).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		if id != "" {
			td, ok := t.Get(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				enc.Encode(map[string]string{"error": "no retained trace " + id})
				return
			}
			enc.Encode(td)
			return
		}
		q := r.URL.Query()
		minMS, _ := strconv.Atoi(q.Get("min_ms"))
		limit, _ := strconv.Atoi(q.Get("limit"))
		onlyErr := q.Get("error") == "1" || q.Get("error") == "true"
		sums := t.Summaries(time.Duration(minMS)*time.Millisecond, onlyErr, limit)
		if sums == nil {
			sums = []TraceSummary{}
		}
		enc.Encode(sums)
	})
}

// boundStr truncates a string to the per-span bound.
func boundStr(s string) string {
	if len(s) > maxStrLen {
		return s[:maxStrLen]
	}
	return s
}
