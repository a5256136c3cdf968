// The campaign + engine seam every request path is written against.
//
// Whether the RR-set sample sits in this process or is range-partitioned
// over adshard daemons is a deployment fact, not a second service. What a
// request needs is resolved once (resolve) into two values: the campaign —
// the per-instance state the serving host keeps in either deployment (key,
// lifecycle lock, spend ledger, bandit estimator, allocation counters) —
// and the engine that owns the sample (a cache entry's local index, or the
// cluster behind a shard.Coordinator). Handlers know only those two, and
// report every engine error through one mapping (failureOf).
//
// What stays single-node-only lives behind resolve, in cache.go: the entry
// cache and its LRU eviction, build coalescing with its hit/miss/coalesced
// accounting, snapshots, and the pin that keeps eviction off an entry while
// a mutation lands.

package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/shard"
)

// campaign is the per-instance state the serving host keeps whichever
// engine holds the sample. It is embedded in a cache entry (single node)
// and in the coordinator-mode state, so the ledger, the estimator and the
// counters exist once.
type campaign struct {
	key    string
	params InstanceParams

	// lifeMu serializes campaign mutations (name checks plus the engine's
	// epoch swap or cluster broadcast), and /spend's name check against
	// them; allocations never take it — they pin an epoch instead. It is
	// never held by ledger or estimator readers, so a slow shard stalls
	// other mutations and /spend, never an allocation.
	lifeMu sync.Mutex

	// spendMu guards the engagement ledger, keyed by ad name so it survives
	// the position shifts removals cause. Never held across an engine call.
	spendMu sync.Mutex
	spent   map[string]float64

	// estMu guards the bandit estimator (nil until the first POST
	// /feedback). Separate from lifeMu: feedback is name-keyed and
	// epoch-tolerant, so it never serializes against campaign mutations.
	estMu sync.Mutex
	est   bandit.Estimator

	// allocs counts successful selection runs; allocObjects/allocBytes
	// accumulate the runtime's heap-allocation deltas measured around each
	// lone run (approximate when requests overlap — the counters are
	// process-wide; see docs/API.md).
	allocs       atomic.Int64
	allocObjects atomic.Int64
	allocBytes   atomic.Int64
}

// spendVector materializes the engagement ledger positionally for inst.
// Ads with no recorded spend map to 0, so a fresh campaign is exactly the
// zero vector.
func (c *campaign) spendVector(inst *core.Instance) []float64 {
	out := make([]float64, len(inst.Ads))
	c.spendMu.Lock()
	defer c.spendMu.Unlock()
	for j, ad := range inst.Ads {
		out[j] = c.spent[ad.Name]
	}
	return out
}

// spentTotal sums the ledger over inst's ads, in ad order.
func (c *campaign) spentTotal(inst *core.Instance) float64 {
	var total float64
	for _, v := range c.spendVector(inst) {
		total += v
	}
	return total
}

// applySpend books one validated POST /spend and returns the ledger line of
// every ad of inst. The caller holds lifeMu.
func (c *campaign) applySpend(inst *core.Instance, req SpendRequest) []AdBudgetStatus {
	c.spendMu.Lock()
	defer c.spendMu.Unlock()
	if req.Reset || c.spent == nil {
		c.spent = map[string]float64{}
	}
	for name, amount := range req.Spend {
		// Zero amounts are valid no-ops but must not create ledger keys: a
		// non-empty ledger pins a cache entry against LRU eviction, and an
		// all-zero ledger carries no state worth pinning.
		if amount > 0 {
			c.spent[name] += amount
		}
	}
	out := make([]AdBudgetStatus, len(inst.Ads))
	for i, ad := range inst.Ads {
		spent := c.spent[ad.Name]
		out[i] = AdBudgetStatus{
			Name:     ad.Name,
			Budget:   ad.Budget,
			Spent:    spent,
			Residual: math.Max(ad.Budget-spent, 0),
			Depleted: spent >= ad.Budget,
		}
	}
	return out
}

// forgetSpend drops a removed ad's ledger line, so a future ad reusing the
// name starts unspent.
func (c *campaign) forgetSpend(name string) {
	c.spendMu.Lock()
	delete(c.spent, name)
	c.spendMu.Unlock()
}

// feedback applies one POST /feedback to the estimator (see applyFeedback
// for the returned status) and returns the estimator now in place.
func (c *campaign) feedback(req FeedbackRequest) (bandit.Estimator, int, error) {
	c.estMu.Lock()
	defer c.estMu.Unlock()
	est, status, err := applyFeedback(c.est, req, c.params.Seed)
	c.est = est
	return est, status, err
}

// banditCPEs materializes the learned effective-CPE vector for inst's
// current ads. The estimator is name-keyed, so the override lines up with
// whatever instance the caller pinned, across epoch swaps; and it is
// computed on the serving host only, so the float math happens in exactly
// one place whatever the engine.
func (c *campaign) banditCPEs(inst *core.Instance) ([]float64, error) {
	c.estMu.Lock()
	defer c.estMu.Unlock()
	if c.est == nil {
		return nil, errors.New("campaign has no engagement estimator; POST /feedback first")
	}
	return overridesFor(c.est, inst), nil
}

// engine owns a campaign's RR-set sample and runs selection and campaign
// mutations against it: a cache entry's local core.Index with its
// workspace pool (cache.go), or the cluster behind a shard.Coordinator
// (sharded.go). Both return byte-identical allocations for the same
// request (internal/shard's golden tests).
type engine interface {
	// EpochInst returns the campaign's current epoch and instance as one
	// consistent pair. Epoch 0 means no sample exists yet: a single-node
	// entry before its first index build, which is the as-generated
	// instance (mutations only exist once an index does).
	EpochInst() (uint64, *core.Instance)
	// Allocate runs one selection; ctx carries the request's trace span
	// and its cancellation, which stops the run before its next round.
	Allocate(ctx context.Context, req core.Request) (*core.TIRMResult, error)
	// AddAd appends ad — spec already cloned against the current instance
	// by core.CloneAd — and returns its position. An engine whose sample
	// lives elsewhere ships spec, and every holder clones it again.
	AddAd(ctx context.Context, spec core.AdSpec, ad core.Ad, opts core.TIRMOptions) (int, error)
	// RemoveAd retires the ad at position pos.
	RemoveAd(ctx context.Context, pos int) error
	// MemBytes is the stored sample's footprint.
	MemBytes() int64
	// upstream reports whether the engine's errors, stale epochs aside,
	// are failures of another host (502) rather than of the request (400).
	upstream() bool
}

// need says how much of a campaign a request path wants resolved.
type need int

const (
	// needInstance is the campaign's instance only — never an index build
	// (/evaluate scores cascades on the graph, not on the sample).
	needInstance need = iota
	// needIndex adds the built sample (/allocate, /allocate/batch).
	needIndex
	// needLedger is the instance, pinned against cache eviction until
	// release, and like needInstance never an index build: /spend and
	// /feedback write host-side state keyed by ad name.
	needLedger
	// needMutation is needLedger plus the built sample (/ads).
	needMutation
)

// target is one request's resolved campaign and engine. The build fields
// describe how a single-node resolve obtained the sample and stay zero in
// coordinator mode, where the shards own it.
type target struct {
	*campaign
	engine
	cold         bool    // this request built (or snapshot-loaded) the index
	fromSnapshot bool    // the index came from a snapshot file
	buildSec     float64 // how long that took
	pinned       *entry  // entry to unpin on release, if any
}

// release drops the eviction pin a needLedger/needMutation resolve took.
func (t target) release() {
	if t.pinned != nil {
		t.pinned.mutating.Add(-1)
	}
}

// resolve is the one place a request meets the deployment: it turns
// instance parameters into the (campaign, engine) pair to serve them, or
// writes the refusal and counts it. In coordinator mode that is a single
// check — the server fronts exactly one instance. In single-node mode it
// is the entry cache: create or join the entry, build or join its index
// when n asks for one, pin it for mutations, and book the read as a cache
// hit, miss or coalesced wait. Callers of a pinning need must release.
func (s *Server) resolve(w http.ResponseWriter, p InstanceParams, n need) (target, bool) {
	if s.sharded != nil {
		st := s.sharded
		if p != st.params {
			s.refuse(w, http.StatusBadRequest, failBadRequest,
				"coordinator serves only %s (cluster instance); got %s", st.key, p.Key())
			return target{}, false
		}
		return target{campaign: &st.campaign, engine: st}, true
	}
	var (
		t               target
		e               *entry
		created, waited bool
		err             error
	)
	pin := n == needLedger || n == needMutation
	if pin {
		e, err = s.mutationEntry(p, n)
		t.pinned = e
	} else {
		e, created, waited, err = s.entryFor(p, n)
	}
	switch {
	case errors.Is(err, errTooManyLiveCampaigns):
		s.refuse(w, http.StatusServiceUnavailable, failCap, "%v", err)
		return target{}, false
	case err != nil:
		s.refuse(w, http.StatusBadRequest, failBadRequest, "%v", err)
		return target{}, false
	}
	t.campaign, t.engine = &e.campaign, e
	if n == needIndex || n == needMutation {
		_, cold, waitedIdx, err := s.indexFor(e)
		if err != nil {
			t.release()
			s.refuse(w, http.StatusInternalServerError, failInternal, "index build: %v", err)
			return target{}, false
		}
		t.cold, t.fromSnapshot, t.buildSec = cold, e.fromDisk, e.buildSec
		created, waited = created || cold, waited || waitedIdx
	}
	if !pin {
		switch {
		case created:
			s.metrics.cacheMisses.Inc()
		case waited:
			s.metrics.coalesced.Inc()
		default:
			s.metrics.cacheHits.Inc()
			e.hits.Add(1)
		}
	}
	return t, true
}

// statusClientClosed is nginx's 499 "client closed request", the status of
// a run its client cancelled; net/http names no such code.
const statusClientClosed = 499

// failureOf is the one mapping from an engine error to how a request
// reports it — HTTP status, adserver_alloc_failures_total reason, message
// prefix — shared by lone allocations, batch items and campaign mutations,
// on either engine: a stale epoch is 409, a partition range with no live
// replica 503, a cancelled request 499, a request refused for its own
// content (core.ErrInvalidRequest) 400, anything else 502 when the engine's
// errors are another host's (upstream) and otherwise the request's own
// fault, 400.
func failureOf(err error, upstream bool) (status int, reason, prefix string) {
	switch {
	case errors.Is(err, core.ErrStaleEpoch):
		return http.StatusConflict, failStaleEpoch, "campaign set changed mid-request, retry: "
	case errors.Is(err, shard.ErrPartitionUnavailable):
		return http.StatusServiceUnavailable, failUnavailable, "cluster degraded: "
	case errors.Is(err, context.Canceled):
		return statusClientClosed, failCanceled, "request canceled: "
	case errors.Is(err, core.ErrInvalidRequest):
		return http.StatusBadRequest, failBadRequest, ""
	case upstream:
		return http.StatusBadGateway, failUpstream, "sharded allocation: "
	default:
		return http.StatusBadRequest, failBadRequest, ""
	}
}

// fail reports an engine error through failureOf.
func (s *Server) fail(w http.ResponseWriter, err error, upstream bool) {
	status, reason, prefix := failureOf(err, upstream)
	s.refuse(w, status, reason, prefix+"%v", err)
}

// refuse counts one refused request under reason and writes the error.
func (s *Server) refuse(w http.ResponseWriter, status int, reason, format string, args ...any) {
	s.metrics.failAlloc(reason)
	httpError(w, status, format, args...)
}

// adNames lists inst's ad names in position order.
func adNames(inst *core.Instance) []string {
	names := make([]string, len(inst.Ads))
	for i, ad := range inst.Ads {
		names[i] = ad.Name
	}
	return names
}

// adPosition returns the position of the ad called name in inst, or -1.
func adPosition(inst *core.Instance, name string) int {
	for j, ad := range inst.Ads {
		if ad.Name == name {
			return j
		}
	}
	return -1
}
