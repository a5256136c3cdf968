// Server telemetry: the /metrics exposition (internal/obs) for the
// allocation service. One serverMetrics per Server owns the registry, the
// per-endpoint HTTP metrics the Instrument middleware records, and every
// count the server keeps — each one obs.Counter, incremented where the
// event happens and read back by the few /stats fields that repeat it —
// plus scrape-time views over state that lives elsewhere (workspace pools,
// index memory, cache size).

package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rrset"
	"repro/internal/shard"
)

// Failure reasons for the adserver_alloc_failures_total counter. Bounded
// by construction: resolve's refusals and failureOf's mapping of engine
// errors (campaign.go) are the only sources, on every request path.
const (
	// failStaleEpoch is a 409: a campaign mutation swapped the epoch
	// between request shaping and the run.
	failStaleEpoch = "stale_epoch"
	// failCap is a 503: the live-campaign cap refused to pin another
	// cache entry (errTooManyLiveCampaigns).
	failCap = "cap"
	// failBadRequest is a 400: invalid parameters or request shape.
	failBadRequest = "bad_request"
	// failInternal is a 500: the index build failed.
	failInternal = "internal"
	// failUpstream is a 502: a shard RPC failed mid-distributed-selection.
	failUpstream = "upstream"
	// failUnavailable is a 503: every replica of some partition range is
	// down (shard.ErrPartitionUnavailable) — the cluster is degraded.
	failUnavailable = "unavailable"
	// failCanceled is a 499: the client went away (context.Canceled)
	// before the run finished or, for a batch item, before it started.
	failCanceled = "canceled"
)

// serverMetrics is the server's observability surface. It implements
// core.AllocObserver so a Request.Observer can feed the per-phase
// histograms straight from the selection loop.
type serverMetrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	// Cache outcomes of resolve (campaign.go) and snapshot-answered builds.
	cacheHits, cacheMisses, coalesced, snapshotLoads *obs.Counter
	// Accepted campaign mutations and ledger updates, one per 200; an ad
	// added or removed is also an epoch swap.
	adsAdded, adsRemoved, epochSwaps, spendUpdates, feedbackUpdates *obs.Counter

	allocations   *obs.Counter
	allocFailures *obs.CounterVec // reason
	allocSeconds  *obs.Histogram
	// phaseSeconds are the adserver_alloc_phase_seconds{phase} children
	// resolved once at startup, indexed by core.AllocPhase so the observer
	// callback never touches the vec's map.
	phaseSeconds [core.NumAllocPhases]*obs.Histogram
	allocRounds  *obs.Histogram
	// kernelSelected holds adserver_kernel_selected_total{kernel}'s
	// children resolved once, indexed by rrset.KernelID so the per-request
	// record path never touches the vec's map.
	kernelSelected [rrset.NumKernels]*obs.Counter
	openingsBuilt  *obs.Counter

	// Bandit-layer telemetry: events applied via POST /feedback, the
	// per-ad learned estimates, and the exploration share of each ad's
	// index observed at feedback time.
	feedbackEvents    *obs.Counter
	banditEstimate    *obs.GaugeVec // campaign, ad
	banditExploration *obs.Histogram

	// shard is non-nil in coordinator mode: the RPC-level telemetry the
	// instrumented shard clients record (see ConnectShards).
	shard *shard.Metrics
}

// allocRoundBuckets sizes the rounds-per-allocation histogram: a round
// commits one seed, so the paper's settings land in the tens to hundreds.
var allocRoundBuckets = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// explorationBuckets sizes the bandit exploration-share histogram: the
// share lives in [0, 1], starts near 1 (untried ads explore maximally)
// and decays toward 0 as counts accumulate.
var explorationBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1}

// newServerMetrics builds the registry for s. The scrape-time funcs close
// over s and read its cache state, so registration must happen after the
// fields they touch exist (New constructs the metrics last).
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:  reg,
		http: obs.NewHTTPMetrics(reg, "adserver"),
		allocations: reg.Counter("adserver_allocations_total",
			"Successful allocation runs served (single-node and coordinator mode)."),
		allocFailures: reg.CounterVec("adserver_alloc_failures_total",
			"Refused or errored requests by reason (stale_epoch=409 epoch race, cap=503 live-campaign cap, unavailable=503 partition range with no live replica, bad_request=400, internal=500 index build, upstream=502 shard RPC, canceled=499 client closed request).",
			"reason"),
		allocSeconds: reg.Histogram("adserver_alloc_seconds",
			"End-to-end selection wall time per successful /allocate, in seconds.", obs.DefBuckets),
		allocRounds: reg.Histogram("adserver_alloc_rounds",
			"Selection rounds (committed seeds) per observed allocation run.", allocRoundBuckets),
	}
	phaseVec := reg.HistogramVec("adserver_alloc_phase_seconds",
		"Cumulative wall time per allocation phase (estimate, scan, commit, grow) per run, in seconds.",
		obs.DefBuckets, "phase")
	for p := core.AllocPhase(0); p < core.NumAllocPhases; p++ {
		m.phaseSeconds[p] = phaseVec.With(p.String())
	}
	m.feedbackEvents = reg.Counter("adserver_feedback_events_total",
		"Engagement feedback events (per-ad impression/click batches) applied via POST /feedback.")
	m.banditEstimate = reg.GaugeVec("adserver_bandit_estimate",
		"Learned per-ad engagement estimate (Laplace-smoothed click-through mean) after the latest feedback batch, per campaign (instance key).",
		"campaign", "ad")
	// Per-ad gauge cardinality is bounded twice over: removal/eviction
	// deletes children explicitly, and the cap catches anything that
	// slips past (many cached entries sharing the vec). 16× the per-entry
	// ad limit leaves room without letting a leak grow unbounded.
	m.banditEstimate.SetMaxChildren(16 * s.opts.MaxAds)
	m.banditExploration = reg.Histogram("adserver_bandit_exploration",
		"Exploration share of each campaign ad's bandit index (index minus smoothed mean, clamped at 0) observed per feedback batch.",
		explorationBuckets)
	kernelVec := reg.CounterVec("adserver_kernel_selected_total",
		"Per-ad coverage collections run on each cover kernel (sparse inverted-row scan vs packed-bitset sweep), summed over successful allocations; in coordinator mode each shard-local collection counts.",
		"kernel")
	for id := rrset.KernelID(0); int(id) < rrset.NumKernels; id++ {
		m.kernelSelected[id] = kernelVec.With(id.String())
	}
	m.openingsBuilt = reg.Counter("adserver_openings_built_total",
		"Per-ad coverage states that built their opening (row clip and initial candidate heap for the request's θ) instead of copying one stored on the index, summed over successful single-node allocations; flat under traffic that repeats θ.")

	m.cacheHits = reg.Counter("adserver_cache_hits_total",
		"Requests served entirely from a cached instance+index.")
	m.cacheMisses = reg.Counter("adserver_cache_misses_total",
		"Requests that generated an instance or built an index.")
	m.coalesced = reg.Counter("adserver_cache_coalesced_total",
		"Requests that waited on another caller's in-flight build.")
	m.snapshotLoads = reg.Counter("adserver_snapshot_loads_total",
		"Index builds answered by loading a snapshot from disk.")
	m.adsAdded = reg.Counter("adserver_ads_added_total",
		"Advertisers added via POST /ads.")
	m.adsRemoved = reg.Counter("adserver_ads_removed_total",
		"Advertisers removed via DELETE /ads/{name}.")
	m.spendUpdates = reg.Counter("adserver_spend_updates_total",
		"Engagement-ledger updates via POST /spend.")
	m.feedbackUpdates = reg.Counter("adserver_feedback_updates_total",
		"Estimator batch updates via POST /feedback.")
	m.epochSwaps = reg.Counter("adserver_epoch_swaps_total",
		"Campaign-epoch swaps (every successful ad add or remove swaps one).")
	reg.CounterFunc("adserver_workspace_hits_total",
		"Allocation workspaces recycled from a pool, summed over live cache entries.",
		func() uint64 { h, _ := s.workspaceTotals(); return uint64(h) })
	reg.CounterFunc("adserver_workspace_misses_total",
		"Allocation workspaces freshly constructed, summed over live cache entries.",
		func() uint64 { _, miss := s.workspaceTotals(); return uint64(miss) })
	reg.GaugeFunc("adserver_index_mem_bytes",
		"Stored RR-set sample footprint in bytes (summed over cached indexes; the cluster sum in coordinator mode).",
		func() float64 { return float64(s.indexMemTotal()) })
	reg.GaugeFunc("adserver_cache_entries",
		"Cached instance+index entries currently live.",
		func() float64 { return float64(s.cacheEntryCount()) })
	reg.GaugeFunc("adserver_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	obs.BuildInfo(reg, "adserver")
	return m
}

// dropBanditEstimate retires one campaign ad's learned-estimate gauge
// child — wired to DELETE /ads/{name} and cache eviction so the per-ad
// family tracks the live campaigns instead of accreting every name ever
// seen. Generated campaigns share ad names, so the child is keyed by the
// campaign too: dropping one campaign's ad leaves another's alone.
func (m *serverMetrics) dropBanditEstimate(campaign, ad string) {
	m.banditEstimate.Delete(campaign, ad)
}

// ObserveAllocation feeds one run's phase breakdown into the histograms;
// serverMetrics is the core.AllocObserver every local selection run gets.
func (m *serverMetrics) ObserveAllocation(t core.PhaseTimings) {
	for p := core.AllocPhase(0); p < core.NumAllocPhases; p++ {
		m.phaseSeconds[p].Observe(t.Phase[p].Seconds())
	}
	m.allocRounds.Observe(float64(t.Rounds))
}

// recordFeedback books one applied POST /feedback batch on campaign: the
// event count and, per current campaign ad, the learned estimate gauge and
// the exploration-share observation.
func (m *serverMetrics) recordFeedback(campaign string, events int, ads []AdEstimate) {
	m.feedbackEvents.Add(uint64(events))
	for _, a := range ads {
		m.banditEstimate.With(campaign, a.Name).Set(a.Mean)
		m.banditExploration.Observe(a.Exploration)
	}
}

// failAlloc counts one refused or errored allocation under its reason.
func (m *serverMetrics) failAlloc(reason string) {
	m.allocFailures.With(reason).Inc()
}

// recordRun folds one successful run's reports into their counters: the
// per-kernel collection tallies into adserver_kernel_selected_total, the
// openings it had to build into adserver_openings_built_total.
func (m *serverMetrics) recordRun(res *core.TIRMResult) {
	for id, c := range res.KernelCounts {
		if c > 0 {
			m.kernelSelected[id].Add(uint64(c))
		}
	}
	m.openingsBuilt.Add(uint64(res.OpeningsBuilt))
}

// workspaceTotals sums the per-entry workspace-pool counters over the live
// cache.
func (s *Server) workspaceTotals() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		h, m := e.pool.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// indexMemTotal sums built-index sample footprints; in coordinator mode it
// is the health-probe-refreshed cluster sum.
func (s *Server) indexMemTotal() int64 {
	if s.sharded != nil {
		return s.sharded.memBytes.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.entries {
		if e.indexBuilt() {
			total += e.idx.MemBytes()
		}
	}
	return total
}

// cacheEntryCount reads the live cache size.
func (s *Server) cacheEntryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
