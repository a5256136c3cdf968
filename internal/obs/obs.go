// Package obs is the repo's dependency-free observability kit: atomic
// counters, gauges, and fixed-bucket latency histograms behind a registry
// that renders the Prometheus text exposition format (version 0.0.4), plus
// trace-id propagation helpers and an HTTP middleware that meters and
// structured-logs every request.
//
// Design constraints, in order:
//
//  1. No dependencies. The whole module is stdlib-only and the telemetry
//     layer must not be the first thing to break that — so this is the
//     ~20% of a metrics client the serving stack needs (monotonic
//     counters, scrape-time gauges, cumulative-bucket histograms, fixed
//     label sets), not a prometheus/client_golang workalike.
//  2. Hot-path writes are lock-free. Counter.Inc and Histogram.Observe
//     are a handful of atomic operations with zero allocations, cheap
//     enough to sit on the warm /allocate path; all locking and
//     formatting cost is paid at scrape time.
//  3. Label sets are fixed at registration and resolved to concrete
//     children (With), so instrumented code can cache the child and skip
//     even the map lookup per event.
//
// Metric registration is programmer-controlled startup work, so shape
// errors (duplicate names, unsorted buckets, arity-mismatched label
// values) panic rather than returning errors nobody would check.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds: 100µs to
// 10s in a coarse log scale. The warm single-node allocation sits around
// 2–3ms and a cold index build at tens of seconds, so the range covers
// both with the open +Inf bucket catching builds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing value (Prometheus type counter).
// All methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (Prometheus type gauge). For
// values derived from existing state at scrape time, prefer
// Registry.GaugeFunc and keep a single source of truth.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus type histogram: name_bucket{le=...}, name_sum, name_count).
// Observe is lock-free; bucket counts are stored per-interval and summed
// cumulatively at scrape time, so concurrent scrapes cost readers nothing.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~20): linear scan beats binary search on branch
	// prediction and is trivially correct.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterVec is a counter family partitioned by a fixed set of label
// names. Children are created on first With and live forever (label
// cardinality must be bounded by construction — endpoints, status codes,
// shard slots — never request data).
type CounterVec struct {
	labels []string

	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for the given label values (one per
// label name, in registration order). The child can be cached by the
// caller to skip the lookup on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	key := vecKey(v.labels, values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c == nil {
		c = &Counter{}
		v.children[key] = c
	}
	return c
}

// GaugeVec is a gauge family partitioned by a fixed set of label names.
// Unlike CounterVec, gauge children can be bounded two ways: SetMaxChildren
// caps how many distinct label sets the exposition will ever hold, and
// Delete retires a child whose label value left the system (an ad removed
// from the campaign) — gauges describe current state, so a stale child is
// a lie, not history.
type GaugeVec struct {
	labels []string

	mu       sync.RWMutex
	children map[string]*Gauge
	maxKids  int
}

// SetMaxChildren caps the live child count (0 means unbounded). Once at
// the cap, With for a new label set returns a detached gauge that is
// never exposed — writes to it are safe no-ops as far as scrapes are
// concerned — so a cardinality leak degrades the metric, not the process.
func (v *GaugeVec) SetMaxChildren(n int) {
	v.mu.Lock()
	v.maxKids = n
	v.mu.Unlock()
}

// With returns the child gauge for the given label values; cacheable
// like CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := vecKey(v.labels, values)
	v.mu.RLock()
	g := v.children[key]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[key]; g == nil {
		if v.maxKids > 0 && len(v.children) >= v.maxKids {
			return &Gauge{} // detached: at cap, never exposed
		}
		g = &Gauge{}
		v.children[key] = g
	}
	return g
}

// Delete removes the child for the given label values, dropping it from
// future scrapes and freeing its cap slot. Deleting an absent child is a
// no-op. Callers holding a cached child from With must drop that cache
// too — writes to a deleted child are no longer exposed.
func (v *GaugeVec) Delete(values ...string) {
	key := vecKey(v.labels, values)
	v.mu.Lock()
	delete(v.children, key)
	v.mu.Unlock()
}

// HistogramVec is a histogram family partitioned by a fixed set of label
// names; the same cardinality rules as CounterVec apply.
type HistogramVec struct {
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label values; cacheable
// like CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := vecKey(v.labels, values)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		h = &Histogram{bounds: v.bounds, counts: make([]atomic.Uint64, len(v.bounds)+1)}
		v.children[key] = h
	}
	return h
}

// vecSep joins label values into child map keys; it cannot appear in a
// label value that round-trips the exposition format anyway.
const vecSep = "\x1f"

func vecKey(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels %v", len(values), len(labels), labels))
	}
	return strings.Join(values, vecSep)
}

// family is one registered metric: its exposition header plus a renderer.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	emit func(w *bufio.Writer)
}

// Registry holds an ordered set of metrics and renders them in the
// Prometheus text exposition format. Registration is startup-time and
// panics on duplicate names; scrapes take a read lock only around the
// registration list, never around metric writes.
type Registry struct {
	mu       sync.RWMutex
	families []family
	names    map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(f family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.names[f.name] = true
	r.families = append(r.families, f)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(family{name: name, help: help, typ: "counter", emit: func(w *bufio.Writer) {
		emitSample(w, name, "", formatUint(c.Value()))
	}})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic state another package owns (an index's lifetime
// sample count, a workspace pool's hits), so the telemetry layer never
// double-books it. A count the registering code keeps itself is a Counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(family{name: name, help: help, typ: "counter", emit: func(w *bufio.Writer) {
		emitSample(w, name, "", formatUint(fn()))
	}})
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, children: map[string]*Counter{}}
	r.register(family{name: name, help: help, typ: "counter", emit: func(w *bufio.Writer) {
		v.mu.RLock()
		keys := sortedKeys(v.children)
		for _, key := range keys {
			emitSample(w, name, renderLabels(labels, splitKey(key), "", 0), formatUint(v.children[key].Value()))
		}
		v.mu.RUnlock()
	}})
	return v
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(family{name: name, help: help, typ: "gauge", emit: func(w *bufio.Writer) {
		emitSample(w, name, "", formatFloat(g.Value()))
	}})
	return g
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels, children: map[string]*Gauge{}}
	r.register(family{name: name, help: help, typ: "gauge", emit: func(w *bufio.Writer) {
		v.mu.RLock()
		keys := sortedKeys(v.children)
		for _, key := range keys {
			emitSample(w, name, renderLabels(labels, splitKey(key), "", 0), formatFloat(v.children[key].Value()))
		}
		v.mu.RUnlock()
	}})
	return v
}

// GaugeFunc registers a gauge computed from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(family{name: name, help: help, typ: "gauge", emit: func(w *bufio.Writer) {
		emitSample(w, name, "", formatFloat(fn()))
	}})
}

// Histogram registers and returns a histogram over the given strictly
// increasing bucket upper bounds (the +Inf bucket is implicit; pass
// DefBuckets for latencies).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(buckets)
	h := &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
	r.register(family{name: name, help: help, typ: "histogram", emit: func(w *bufio.Writer) {
		emitHistogram(w, name, nil, nil, h)
	}})
	return h
}

// HistogramVec registers and returns a labeled histogram family; every
// child shares the bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkBuckets(buckets)
	v := &HistogramVec{labels: labels, bounds: buckets, children: map[string]*Histogram{}}
	r.register(family{name: name, help: help, typ: "histogram", emit: func(w *bufio.Writer) {
		v.mu.RLock()
		keys := sortedKeys(v.children)
		for _, key := range keys {
			emitHistogram(w, name, labels, splitKey(key), v.children[key])
		}
		v.mu.RUnlock()
	}})
	return v
}

// Expose renders every registered metric in the text exposition format,
// in registration order with vec children sorted by label values.
func (r *Registry) Expose(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	families := r.families
	r.mu.RUnlock()
	for _, f := range families {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ)
		bw.WriteByte('\n')
		f.emit(bw)
	}
	return bw.Flush()
}

// Handler returns the GET /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Expose(w)
	})
}

// --- rendering helpers ----------------------------------------------------

func emitSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// emitHistogram writes one histogram child: cumulative buckets, sum,
// count. labels/values are nil for an unlabeled histogram.
func emitHistogram(w *bufio.Writer, name string, labels, values []string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		emitSample(w, name+"_bucket", renderLabels(labels, values, "le", bound), formatUint(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	emitSample(w, name+"_bucket", renderLabels(labels, values, "le", math.Inf(1)), formatUint(cum))
	emitSample(w, name+"_sum", renderLabels(labels, values, "", 0), formatFloat(h.Sum()))
	emitSample(w, name+"_count", renderLabels(labels, values, "", 0), formatUint(h.count.Load()))
}

// renderLabels renders `{k="v",...}` (empty string for no labels); a
// non-empty le name appends the histogram bucket bound last.
func renderLabels(labels, values []string, le string, bound float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		if math.IsInf(bound, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(bound))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func splitKey(key string) []string { return strings.Split(key, vecSep) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func checkBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets must be strictly increasing, got %v", buckets))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], 1) {
		panic("obs: +Inf bucket is implicit, do not pass it")
	}
}

// validName accepts Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
