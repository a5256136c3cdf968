// Package serve exposes the allocation engine as a concurrent HTTP/JSON
// service — the shape the ROADMAP's production north star asks for: a host
// that repeatedly re-allocates as campaigns arrive and budgets change.
//
// The expensive substrate (per-ad RR-set samples) is managed as a cache of
// core.Index values keyed by (dataset, seed, scale, ads). The first request
// for a key builds the instance and presamples its index; concurrent
// requests for the same key coalesce onto that one build; every later
// request reuses the sample and pays only the cheap greedy selection
// (core.AllocateFromIndex), whatever its budgets, λ, κ, ad subset, or
// options. With a snapshot directory configured, built indexes are
// persisted with core's binary snapshot format and reloaded on restart, so
// a bounced server answers warm.
//
// Campaigns are mutable after the build: POST /ads adds an advertiser to a
// cached index (sampling only the new ad's stream), DELETE /ads/{name}
// retires one, and POST /spend records engagement spend so that
// /allocate with "residual": true re-targets the remaining budgets
// B_i − spent_i — the campaign-lifecycle loop internal/sim simulates,
// served over HTTP. Mutations ride the same entry cache and coalescing as
// reads; they advance the index's epoch, and a racing residual allocation
// fails with 409 instead of running against a campaign set it was not
// shaped for. Mutations live in memory only: a snapshot restart restores
// the as-built index (see DESIGN.md §6.5).
//
// With Options.Shards set, the sample lives on a cluster of adshard
// daemons instead (coordinator mode). That is a second engine, not a second
// service: every request path is written once against a campaign and an
// engine resolved per request (campaign.go), and only the cache above is
// single-node-only.
//
// Endpoints:
//
//	POST   /allocate    — run TIRM selection against the cached index
//	POST   /allocate/batch — evaluate many selection requests against one pinned epoch
//	POST   /evaluate    — neutral Monte Carlo scoring of an allocation
//	POST   /ads         — add an advertiser to a cached campaign set
//	DELETE /ads/{name}  — remove an advertiser by name
//	POST   /spend       — record engagement spend / read residual budgets
//	POST   /feedback    — apply engagement events to the bandit estimator
//	GET    /datasets    — registered dataset generators
//	GET    /stats       — per-entry detail, per-index memory, the cluster section
//	GET    /healthz     — liveness probe
//	GET    /metrics     — Prometheus text exposition (see docs/OBSERVABILITY.md)
package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// DefaultMaxScale bounds the dataset scale a request may ask for; the
// LiveJournal analogue at scale 1 is a multi-gigabyte build, and an open
// endpoint must not let one request OOM the process.
const DefaultMaxScale = 0.25

// DefaultMaxTheta caps per-ad sample sizes when a request does not say
// otherwise, bounding index memory (TIRMOptions.MaxTheta = 0 means
// uncapped in the library, which a server cannot afford).
const DefaultMaxTheta = 200000

// DefaultMaxEntries bounds the cache: every distinct (dataset, seed,
// scale, ads) key retains a multi-MB instance+index, so without eviction a
// client iterating seeds would grow the process until it OOMs.
const DefaultMaxEntries = 8

// DefaultMaxAds bounds the per-request advertiser count; instance size and
// index presampling both scale linearly in it (the paper's settings use 5
// and 10).
const DefaultMaxAds = 64

// Options configures a Server.
type Options struct {
	// SnapshotDir, when non-empty, enables index persistence: builds are
	// saved there and restarts load instead of resampling.
	SnapshotDir string
	// MaxScale rejects requests beyond this dataset scale (default
	// DefaultMaxScale).
	MaxScale float64
	// MaxTheta is the server-side cap on per-ad sample sizes (default
	// DefaultMaxTheta). Request values above it are clamped.
	MaxTheta int
	// MaxEntries caps the number of cached instance+index entries;
	// least-recently-used entries are evicted past it (default
	// DefaultMaxEntries). Snapshots on disk survive eviction, so a
	// re-requested key reloads instead of resampling.
	MaxEntries int
	// MaxAds rejects requests asking for more advertisers than this
	// (default DefaultMaxAds).
	MaxAds int
	// Shards, when non-empty, switches the server into coordinator mode:
	// /allocate runs distributed scatter-gather selection over these
	// adshard daemons ("host:port") instead of a local index. The list is
	// slot-major: with Replicas = R, each partition slot's R replicas are
	// consecutive entries. Call ConnectShards before serving.
	Shards []string
	// Replicas is the replication factor R in coordinator mode: every
	// partition range is served by R interchangeable shard daemons with
	// automatic failover (default 1, unreplicated). len(Shards) must be a
	// multiple of R.
	Replicas int
	// RPCTimeout is the per-attempt deadline for fast shard RPCs in
	// coordinator mode; sampling-heavy ops get 10× this (default 30s, see
	// shard.RetryPolicy).
	RPCTimeout time.Duration
	// ProbeInterval, when > 0, runs a background prober in coordinator
	// mode that re-checks replica health and revives recovered replicas
	// every interval (replicas also revive on /healthz probes). Pair with
	// Close.
	ProbeInterval time.Duration
	// Logf receives operational messages (default log.Printf).
	Logf func(format string, args ...any)
}

// Server is the allocation service. Create with New; serve via Handler.
type Server struct {
	opts  Options
	start time.Time

	// metrics is the server's /metrics surface; it doubles as the
	// core.AllocObserver local selection runs report phase timings to.
	metrics *serverMetrics

	// tracer assembles per-request span trees and retains them tail-based
	// for GET /debug/traces, under the obs defaults (256 traces, 250ms,
	// 1-in-16; see docs/OBSERVABILITY.md). Tracing is always on — span cost
	// is per-request and bounded — and never changes an allocation's bytes.
	tracer *obs.Tracer

	// sharded is non-nil in coordinator mode (see ConnectShards).
	sharded *shardedState

	// proberStop ends the background replica prober (see Close); nil
	// unless ConnectShards started one.
	proberStop chan struct{}
	proberDone chan struct{}
	closeOnce  sync.Once
	// reads counts the snapshot reads in flight (startSnapshotRead); Close
	// waits for them.
	reads sync.WaitGroup

	mu      sync.Mutex
	entries map[string]*entry
}

// InstanceParams identifies a cached instance+index. Only sampling-time
// inputs belong here: budgets, CPE, λ, κ are selection-time and overridable
// per request, so they deliberately do not fragment the cache.
type InstanceParams struct {
	Dataset string  `json:"dataset"`
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	NumAds  int     `json:"numAds,omitempty"`
}

// Key renders the parameters as the cache key (one string per distinct
// instance+index).
func (p InstanceParams) Key() string {
	return fmt.Sprintf("%s|seed=%d|scale=%g|ads=%d", p.Dataset, p.Seed, p.Scale, p.NumAds)
}

// BuildDataset generates the instance for catalog dataset parameters —
// the exact generator path /allocate uses, exported for the shard daemon
// (cmd/adshard), which must build the identical roster the coordinator
// validates fingerprints against.
func BuildDataset(p InstanceParams) (*core.Instance, error) {
	d, err := p.dataset()
	if err != nil {
		return nil, err
	}
	return p.build(d), nil
}

// dataset resolves p's generator in gen.Catalog and checks the parameters
// every generator needs.
func (p InstanceParams) dataset() (gen.Dataset, error) {
	d, ok := gen.Lookup(p.Dataset)
	if !ok {
		return d, fmt.Errorf("unknown dataset %q", p.Dataset)
	}
	if p.Scale <= 0 {
		return d, fmt.Errorf("scale must be > 0")
	}
	if p.NumAds < 0 {
		return d, fmt.Errorf("numAds must be ≥ 0")
	}
	return d, nil
}

func (p InstanceParams) build(d gen.Dataset) *core.Instance {
	return d.Build(gen.Options{Seed: p.Seed, Scale: p.Scale, NumAds: p.NumAds})
}

// New creates a server. If opts.SnapshotDir is set it is created on demand.
func New(opts Options) *Server {
	if opts.MaxScale <= 0 {
		opts.MaxScale = DefaultMaxScale
	}
	if opts.MaxTheta <= 0 {
		opts.MaxTheta = DefaultMaxTheta
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxAds <= 0 {
		opts.MaxAds = DefaultMaxAds
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	s := &Server{opts: opts, start: time.Now(), entries: map[string]*entry{}}
	s.metrics = newServerMetrics(s)
	s.tracer = obs.NewTracer(obs.TracerConfig{})
	s.tracer.EnableMetrics(s.metrics.reg, "adserver")
	return s
}

// Tracer exposes the server's span tracer (tests and embedding hosts
// query retained traces through it).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the service's HTTP routes, wrapped in the obs middleware
// so every request is metered per endpoint, carries a trace id (minted
// unless the client sent X-Trace-Id), and is logged as one structured
// key=value line through Options.Logf.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/allocate", s.handleAllocate)
	mux.HandleFunc("/allocate/batch", s.handleAllocateBatch)
	mux.HandleFunc("/evaluate", s.handleEvaluate)
	mux.HandleFunc("/ads", s.handleAddAd)
	mux.HandleFunc("/ads/", s.handleRemoveAd)
	mux.HandleFunc("/spend", s.handleSpend)
	mux.HandleFunc("/feedback", s.handleFeedback)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	mux.Handle("/debug/traces", s.tracer.Handler())
	mux.Handle("/debug/traces/", s.tracer.Handler())
	return obs.Instrument(mux, s.metrics.http, obs.InstrumentOptions{
		Component: "adserver",
		Logf:      s.opts.Logf,
		Tracer:    s.tracer,
	})
}

// Warm builds (or loads) the instance and index for the given parameters
// ahead of traffic — cmd/adserver's -preload flag.
func (s *Server) Warm(p InstanceParams) error {
	e, _, _, err := s.entryFor(p, needIndex)
	if err != nil {
		return err
	}
	_, _, _, err = s.indexFor(e)
	return err
}

// WarmSpec parses "dataset:seed:scale[:ads]" into instance parameters.
func WarmSpec(spec string) (InstanceParams, error) {
	var p InstanceParams
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return p, fmt.Errorf("serve: preload spec %q is not dataset:seed:scale[:ads]", spec)
	}
	p.Dataset = parts[0]
	var err error
	if p.Seed, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return p, fmt.Errorf("serve: preload seed %q: %w", parts[1], err)
	}
	if p.Scale, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return p, fmt.Errorf("serve: preload scale %q: %w", parts[2], err)
	}
	if len(parts) == 4 {
		if p.NumAds, err = strconv.Atoi(parts[3]); err != nil {
			return p, fmt.Errorf("serve: preload ads %q: %w", parts[3], err)
		}
	}
	return p, nil
}

// heapAllocSample reads the runtime's cumulative heap-allocation counters
// (objects, bytes). Deltas around a selection run approximate its
// allocation cost; with overlapping requests the counters attribute
// concurrent activity too, so the figures are a fleet-level signal, not an
// exact per-request measurement.
func heapAllocSample() (objects, bytes int64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	return int64(samples[0].Value.Uint64()), int64(samples[1].Value.Uint64())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// HealthResponse is GET /healthz. Shards is present only in coordinator
// mode, one row per shard replica; status "degraded" (with HTTP 503)
// means some partition range has no reachable replica at all, so
// distributed allocations will fail. Individual dead replicas of a
// replicated range leave status "ok" — their rows show reachable:false
// and the range keeps serving via failover.
type HealthResponse struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Shards carries per-replica health in coordinator mode.
	Shards []ShardHealth `json:"shards,omitempty"`
	// DegradedRanges lists partition slots with no reachable replica
	// (present only when Status is "degraded").
	DegradedRanges []int `json:"degradedRanges,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sharded == nil {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
		return
	}
	health, degraded := s.sharded.shardHealth(r.Context())
	resp := HealthResponse{Status: "ok", Shards: health, DegradedRanges: degraded}
	code := http.StatusOK
	if len(degraded) > 0 {
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// DatasetInfo describes one registered generator.
type DatasetInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out := make([]DatasetInfo, len(gen.Catalog))
	for i, d := range gen.Catalog {
		out[i] = DatasetInfo{Name: d.Name, Description: d.Description}
	}
	writeJSON(w, http.StatusOK, out)
}

// EntryStats reports one cached entry. Index fields are zero until the
// first /allocate (or Warm) builds the index; Epoch counts campaign
// mutations from 1, and SpentTotal sums the engagement ledger over the
// current ads.
type EntryStats struct {
	Key          string  `json:"key"`
	NumAds       int     `json:"numAds"`
	Epoch        uint64  `json:"epoch,omitempty"`
	IndexBuilt   bool    `json:"indexBuilt"`
	SetsSampled  int64   `json:"setsSampled"`
	MemBytes     int64   `json:"memBytes"`
	BuildSeconds float64 `json:"buildSeconds"`
	FromSnapshot bool    `json:"fromSnapshot"`
	Hits         int64   `json:"hits"`
	Allocations  int64   `json:"allocations"`
	SpentTotal   float64 `json:"spentTotal,omitempty"`
	// WorkspaceHits/WorkspaceMisses count workspace-pool recycles vs fresh
	// constructions for this entry's allocations; a healthy steady state is
	// all hits after the first request per concurrency level.
	WorkspaceHits   int64 `json:"workspaceHits"`
	WorkspaceMisses int64 `json:"workspaceMisses"`
	// AllocObjectsPerRequest/AllocBytesPerRequest average the heap
	// allocation deltas sampled around this entry's selection runs.
	AllocObjectsPerRequest float64 `json:"allocObjectsPerRequest,omitempty"`
	AllocBytesPerRequest   float64 `json:"allocBytesPerRequest,omitempty"`
}

// StatsResponse is GET /stats: what /metrics cannot say — the per-entry
// table, memory per dataset, the cluster section — plus three totals that
// are read back from the /metrics counters and gauge of the same name
// (adserver_cache_hits_total, adserver_cache_misses_total,
// adserver_index_mem_bytes), so the two endpoints cannot disagree. Every
// other count the server keeps is on /metrics only. IndexMemBytes figures
// are exact — the flat CSR arenas of core.Index know their byte sizes
// precisely — and IndexMemByDataset aggregates them per dataset name, so an
// operator can see at a glance which dataset's samples own the process's
// memory across seeds and scales.
type StatsResponse struct {
	UptimeSeconds     float64          `json:"uptimeSeconds"`
	CacheHits         int64            `json:"cacheHits"`
	CacheMisses       int64            `json:"cacheMisses"`
	IndexMemBytes     int64            `json:"indexMemBytes"`
	IndexMemByDataset map[string]int64 `json:"indexMemByDataset"`
	Entries           []EntryStats     `json:"entries"`
	// Sharded is present only in coordinator mode: the cluster's identity,
	// per-shard health, and distributed-allocation counters.
	Sharded *ShardedStatsSection `json:"sharded,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	resp := StatsResponse{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		CacheHits:         int64(s.metrics.cacheHits.Value()),
		CacheMisses:       int64(s.metrics.cacheMisses.Value()),
		IndexMemByDataset: map[string]int64{},
		Entries:           make([]EntryStats, 0, len(entries)),
	}
	for _, e := range entries {
		select {
		case <-e.instReady:
		default:
			continue // instance still generating; skip rather than block
		}
		epoch, inst := e.EpochInst()
		wsHits, wsMisses := e.pool.Stats()
		es := EntryStats{
			Key:             e.key,
			NumAds:          len(inst.Ads),
			Epoch:           epoch,
			Hits:            e.hits.Load(),
			Allocations:     e.allocs.Load(),
			SpentTotal:      e.spentTotal(inst),
			WorkspaceHits:   wsHits,
			WorkspaceMisses: wsMisses,
		}
		if runs := e.allocs.Load(); runs > 0 {
			es.AllocObjectsPerRequest = float64(e.allocObjects.Load()) / float64(runs)
			es.AllocBytesPerRequest = float64(e.allocBytes.Load()) / float64(runs)
		}
		if e.indexBuilt() {
			mem := e.idx.MemBytes()
			resp.IndexMemByDataset[e.params.Dataset] += mem
			es.IndexBuilt = true
			es.SetsSampled = e.idx.SetsSampled()
			es.MemBytes = mem
			es.BuildSeconds = e.buildSec
			es.FromSnapshot = e.fromDisk
		}
		resp.Entries = append(resp.Entries, es)
	}
	if s.sharded != nil {
		// The cache above is empty: the sample lives on the shards, and the
		// health sweep behind this section refreshes its summed footprint.
		resp.Sharded = s.shardedStats(r.Context())
	}
	resp.IndexMemBytes = s.indexMemTotal()
	writeJSON(w, http.StatusOK, resp)
}

// AllocateRequest is POST /allocate. Instance parameters pick the cached
// index; everything else tunes the selection run only. With Residual set,
// the run subtracts the spend recorded via POST /spend from every ad's
// budget and targets the remainder (fully spent ads get no seeds).
type AllocateRequest struct {
	InstanceParams
	Kappa    int       `json:"kappa,omitempty"`
	Lambda   *float64  `json:"lambda,omitempty"`
	Ads      []int     `json:"ads,omitempty"`
	Budgets  []float64 `json:"budgets,omitempty"`
	CPEs     []float64 `json:"cpes,omitempty"`
	Residual bool      `json:"residual,omitempty"`
	// Bandit applies the campaign's learned engagement estimates (built
	// from POST /feedback events) as effective-CPE overrides for this run.
	// Mutually exclusive with explicit CPEs; 400 when no feedback has been
	// recorded yet.
	Bandit bool `json:"bandit,omitempty"`
	// Explain records the run's per-round decisions (chosen ad, seed
	// node, marginal gain, residual budget) as events on the request's
	// trace — retrieve them via GET /debug/traces/{id} with the request's
	// X-Trace-Id. Off by default; never changes the allocation.
	Explain bool       `json:"explain,omitempty"`
	Opts    TIRMParams `json:"opts,omitempty"`
}

// TIRMParams is the JSON form of core.TIRMOptions (zero = default).
type TIRMParams struct {
	Eps            float64 `json:"eps,omitempty"`
	Ell            float64 `json:"ell,omitempty"`
	MinTheta       int     `json:"minTheta,omitempty"`
	MaxTheta       int     `json:"maxTheta,omitempty"`
	MaxSeedsPerAd  int     `json:"maxSeedsPerAd,omitempty"`
	CandidateDepth int     `json:"candidateDepth,omitempty"`
	SoftCoverage   bool    `json:"softCoverage,omitempty"`
}

// toOptions clamps the request against the server's sampling cap.
func (p TIRMParams) toOptions(maxTheta int) core.TIRMOptions {
	o := core.TIRMOptions{
		Eps:            p.Eps,
		Ell:            p.Ell,
		MinTheta:       p.MinTheta,
		MaxTheta:       p.MaxTheta,
		MaxSeedsPerAd:  p.MaxSeedsPerAd,
		CandidateDepth: p.CandidateDepth,
		SoftCoverage:   p.SoftCoverage,
	}
	if o.MaxTheta <= 0 || o.MaxTheta > maxTheta {
		o.MaxTheta = maxTheta
	}
	if o.MinTheta > o.MaxTheta {
		o.MinTheta = o.MaxTheta
	}
	return o
}

// AllocateResponse is POST /allocate's result. Epoch identifies the
// campaign-set version the run was served on; SpentBudgets echoes the
// engagement spend a residual run subtracted (absent otherwise).
type AllocateResponse struct {
	Key           string    `json:"key"`
	Epoch         uint64    `json:"epoch"`
	ColdBuild     bool      `json:"coldBuild"`
	FromSnapshot  bool      `json:"fromSnapshot"`
	BuildSeconds  float64   `json:"buildSeconds,omitempty"`
	AllocSeconds  float64   `json:"allocSeconds"`
	Seeds         [][]int32 `json:"seeds"`
	EstRevenue    []float64 `json:"estRevenue"`
	EstRegret     float64   `json:"estRegret"`
	FinalTheta    []int     `json:"finalTheta"`
	Iterations    int       `json:"iterations"`
	SetsSampled   int64     `json:"setsSampled"`
	SetsReused    int64     `json:"setsReused"`
	IndexMemBytes int64     `json:"indexMemBytes"`
	AdNames       []string  `json:"adNames"`
	SpentBudgets  []float64 `json:"spentBudgets,omitempty"`
	// AllocObjects/AllocBytes are the process heap-allocation deltas
	// measured around this selection run — approximate when requests
	// overlap (see GET /stats for the per-entry aggregates).
	AllocObjects int64 `json:"allocObjects"`
	AllocBytes   int64 `json:"allocBytes"`
}

// item returns the request's per-run fields, the part a lone allocation
// shares with a batch item.
func (req *AllocateRequest) item() AllocateItem {
	return AllocateItem{
		Kappa:    req.Kappa,
		Lambda:   req.Lambda,
		Ads:      req.Ads,
		Budgets:  req.Budgets,
		CPEs:     req.CPEs,
		Residual: req.Residual,
		Opts:     req.Opts,
	}
}

// pinnedCampaign is the campaign epoch a request is shaped against and
// reported over, whether it carries one selection run or a batch of them.
// Pinning every run to it turns a campaign mutation racing the request into
// clean 409s, never a positionally misaligned allocation or a batch split
// across two campaign sets.
type pinnedCampaign struct {
	s *Server
	target
	epoch uint64
	inst  *core.Instance
	// spent is the spend ledger, read once by the first residual run: every
	// residual run of the request targets the same remaining budgets.
	spent []float64
}

// pin captures t's current epoch for one request.
func (s *Server) pin(t target) *pinnedCampaign {
	epoch, inst := t.EpochInst()
	return &pinnedCampaign{s: s, target: t, epoch: epoch, inst: inst}
}

// request shapes one selection run: options clamped to the server's
// sampling cap, the κ override, the ledger subtracted for a residual run,
// the epoch pin and the observer.
func (p *pinnedCampaign) request(item AllocateItem, observer core.AllocObserver, explain bool) core.Request {
	req := core.Request{
		Opts:     item.Opts.toOptions(p.s.opts.MaxTheta),
		Ads:      item.Ads,
		Budgets:  item.Budgets,
		CPEs:     item.CPEs,
		Lambda:   item.Lambda,
		Epoch:    p.epoch,
		Observer: observer,
		Explain:  explain,
	}
	if item.Kappa > 0 {
		req.Kappa = core.ConstKappa(item.Kappa)
	}
	if item.Residual {
		if p.spent == nil {
			p.spent = p.spendVector(p.inst)
		}
		req.SpentBudget = p.spent
	}
	return req
}

// report books one run's outcome and renders the fields every run reports.
// A failed run is counted under failureOf's reason and carries its status;
// errPrefix is what a lone response puts before the error text. A
// successful one is counted on the server and the campaign and reports its
// regret over the requested ad subset only — an excluded ad's untouched
// budget is not this allocation's failure — against the budgets it
// targeted: overridden ones, and for a residual run what was left of them.
func (p *pinnedCampaign) report(req core.Request, res *core.TIRMResult, err error) (out BatchItemResult, errPrefix string) {
	m := p.s.metrics
	if err != nil {
		status, reason, prefix := failureOf(err, p.upstream())
		m.failAlloc(reason)
		return BatchItemResult{Error: err.Error(), Status: status}, prefix
	}
	m.allocations.Inc()
	m.recordRun(res)
	p.allocs.Add(1)
	for i, seeds := range res.Alloc.Seeds {
		if seeds == nil {
			res.Alloc.Seeds[i] = []int32{} // JSON: [] for empty, never null
		}
	}
	inst := instWith(p.inst, req.Lambda, 0)
	return BatchItemResult{
		Seeds:        res.Alloc.Seeds,
		EstRevenue:   res.EstRevenue,
		EstRegret:    core.RegretOver(inst, req.Ads, req.Budgets, req.SpentBudget, res.EstRevenue, res.Alloc.Seeds),
		FinalTheta:   res.FinalTheta,
		Iterations:   res.Iterations,
		SetsSampled:  res.TotalSetsSampled,
		SetsReused:   res.SetsReused,
		SpentBudgets: req.SpentBudget,
	}, ""
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req AllocateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolve(w, req.InstanceParams, needIndex)
	if !ok {
		return
	}
	p := s.pin(t)
	item := req.item()
	if req.Bandit {
		if req.CPEs != nil {
			s.refuse(w, http.StatusBadRequest, failBadRequest, "bandit and cpes are mutually exclusive")
			return
		}
		cpes, err := t.banditCPEs(p.inst)
		if err != nil {
			s.refuse(w, http.StatusBadRequest, failBadRequest, "%v", err)
			return
		}
		item.CPEs = cpes
	}
	actx, observer, explain, allocSpan := s.allocObserverFor(r.Context(), req.Explain)
	coreReq := p.request(item, observer, explain)
	started := time.Now()
	objBefore, bytesBefore := heapAllocSample()
	res, err := t.Allocate(actx, coreReq)
	allocSpan.EndErr(err)
	objAfter, bytesAfter := heapAllocSample()
	run, errPrefix := p.report(coreReq, res, err)
	if err != nil {
		httpError(w, run.Status, "%s%s", errPrefix, run.Error)
		return
	}
	s.metrics.allocSeconds.Observe(time.Since(started).Seconds())
	resp := AllocateResponse{
		Key:           t.key,
		Epoch:         p.epoch,
		ColdBuild:     t.cold,
		FromSnapshot:  t.fromSnapshot,
		AllocSeconds:  time.Since(started).Seconds(),
		Seeds:         run.Seeds,
		EstRevenue:    run.EstRevenue,
		EstRegret:     run.EstRegret,
		FinalTheta:    run.FinalTheta,
		Iterations:    run.Iterations,
		SetsSampled:   run.SetsSampled,
		SetsReused:    run.SetsReused,
		IndexMemBytes: t.MemBytes(),
		AdNames:       adNames(p.inst),
		SpentBudgets:  run.SpentBudgets,
		AllocObjects:  objAfter - objBefore,
		AllocBytes:    bytesAfter - bytesBefore,
	}
	// Accumulated only for successful runs: allocs is the divisor of the
	// /stats per-request averages, so failed runs must not contribute.
	t.allocObjects.Add(resp.AllocObjects)
	t.allocBytes.Add(resp.AllocBytes)
	if t.cold {
		resp.BuildSeconds = t.buildSec
	}
	writeJSON(w, http.StatusOK, resp)
}

// EvaluateRequest is POST /evaluate: score a seed assignment with neutral
// Monte Carlo cascades against the named instance. Seeds rows are
// positional, so when scoring an allocation taken from a mutable campaign
// pass the /allocate response's epoch in Epoch: if the campaign has
// changed since (which can reshuffle positions even at equal ad counts),
// the request fails with 409 instead of scoring seeds against the wrong
// ads. Zero accepts the current campaign.
type EvaluateRequest struct {
	InstanceParams
	Kappa    int       `json:"kappa,omitempty"`
	Lambda   *float64  `json:"lambda,omitempty"`
	Seeds    [][]int32 `json:"seeds"`
	Runs     int       `json:"runs,omitempty"`
	EvalSeed uint64    `json:"evalSeed,omitempty"`
	Epoch    uint64    `json:"epoch,omitempty"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Evaluation needs only the instance: never an index build, never a
	// shard RPC.
	t, ok := s.resolve(w, req.InstanceParams, needInstance)
	if !ok {
		return
	}
	epoch, curInst := t.EpochInst()
	if epoch == 0 {
		epoch = 1 // no sample yet, so no mutation either: the as-built campaign
	}
	if req.Epoch != 0 && req.Epoch != epoch {
		httpError(w, http.StatusConflict,
			"seeds were taken at campaign epoch %d, entry is at %d — re-allocate and retry", req.Epoch, epoch)
		return
	}
	// λ is checked by the rule /allocate applies, so a negative λ is a 400
	// here too rather than a negative seed regret.
	if _, _, _, err := (&core.Request{Lambda: req.Lambda}).Resolve(curInst); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	inst := instWith(curInst, req.Lambda, req.Kappa)
	alloc := &core.Allocation{Seeds: req.Seeds}
	if err := alloc.Validate(inst); err != nil {
		httpError(w, http.StatusBadRequest, "invalid allocation: %v", err)
		return
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 2000
	}
	if runs > eval.DefaultRuns {
		runs = eval.DefaultRuns
	}
	out := eval.Evaluate(inst, alloc, runs, xrand.New(req.EvalSeed))
	writeJSON(w, http.StatusOK, out)
}

// instWith returns a shallow copy of inst with optional λ/κ overrides, so
// evaluation and regret reporting reflect the request's setting without
// mutating the shared cached instance.
func instWith(inst *core.Instance, lambda *float64, kappa int) *core.Instance {
	cp := *inst
	if lambda != nil {
		cp.Lambda = *lambda
	}
	if kappa > 0 {
		cp.Kappa = core.ConstKappa(kappa)
	}
	return &cp
}
