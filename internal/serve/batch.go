// POST /allocate/batch: evaluate many selection requests against one
// pinned campaign epoch in a single round trip.
//
// A batch is a fan-out of the engine's own Allocate, the same on either
// engine: the campaign is resolved once, every item is shaped against one
// pin (epoch, instance, spend ledger), and the items run under a bounded
// worker budget. Each item returns exactly what a lone POST /allocate with
// the same parameters would have returned (golden-pinned), items fail
// independently, an item that starts after a racing campaign mutation
// fails with a stale epoch (409) rather than allocating against a
// different campaign set, and once the request's context is done the items
// not yet started fail with its error instead of running for nobody.

package serve

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/rrset"
)

// MaxBatchItems caps the number of selection requests one POST
// /allocate/batch may carry. Batches beyond the cap are rejected with 400
// rather than queued: the batch path exists to amortize per-request
// overhead, not to become an unbounded work queue.
const MaxBatchItems = 64

// batchInFlight bounds the items of one batch that run at once: a quarter
// of a shard's 64-run table, so one coordinator batch cannot starve a
// shard of runs. Below 17 cores the worker budget binds first.
const batchInFlight = 16

// AllocateItem is one selection request inside a batch: the per-run fields
// of AllocateRequest without the instance coordinates (the batch names its
// instance once). Field semantics match POST /allocate exactly.
type AllocateItem struct {
	Kappa    int        `json:"kappa,omitempty"`
	Lambda   *float64   `json:"lambda,omitempty"`
	Ads      []int      `json:"ads,omitempty"`
	Budgets  []float64  `json:"budgets,omitempty"`
	CPEs     []float64  `json:"cpes,omitempty"`
	Residual bool       `json:"residual,omitempty"`
	Opts     TIRMParams `json:"opts,omitempty"`
}

// AllocateBatchRequest is POST /allocate/batch: one instance, up to
// MaxBatchItems selection requests evaluated against the same epoch.
type AllocateBatchRequest struct {
	InstanceParams
	Requests []AllocateItem `json:"requests"`
}

// BatchItemResult is one item's outcome. Exactly one of Error or the
// result fields is populated: a failed item carries its error string (and
// Status, the HTTP code the same lone /allocate would have returned) while
// its siblings still succeed.
type BatchItemResult struct {
	Error        string    `json:"error,omitempty"`
	Status       int       `json:"status,omitempty"`
	Seeds        [][]int32 `json:"seeds,omitempty"`
	EstRevenue   []float64 `json:"estRevenue,omitempty"`
	EstRegret    float64   `json:"estRegret,omitempty"`
	FinalTheta   []int     `json:"finalTheta,omitempty"`
	Iterations   int       `json:"iterations,omitempty"`
	SetsSampled  int64     `json:"setsSampled,omitempty"`
	SetsReused   int64     `json:"setsReused,omitempty"`
	SpentBudgets []float64 `json:"spentBudgets,omitempty"`
}

// AllocateBatchResponse is POST /allocate/batch's result: the shared
// epoch/ad-name context resolved once, plus one BatchItemResult per
// request in request order. AllocSeconds is the whole batch's wall time —
// items run concurrently, so it is not the per-item sum.
type AllocateBatchResponse struct {
	Key          string            `json:"key"`
	Epoch        uint64            `json:"epoch"`
	ColdBuild    bool              `json:"coldBuild"`
	AllocSeconds float64           `json:"allocSeconds"`
	AdNames      []string          `json:"adNames"`
	Items        []BatchItemResult `json:"items"`
}

// checkBatchShape rejects empty and oversized batches with 400.
func checkBatchShape(w http.ResponseWriter, req AllocateBatchRequest) bool {
	if len(req.Requests) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no requests")
		return false
	}
	if len(req.Requests) > MaxBatchItems {
		httpError(w, http.StatusBadRequest,
			"batch carries %d requests; cap is %d", len(req.Requests), MaxBatchItems)
		return false
	}
	return true
}

func (s *Server) handleAllocateBatch(w http.ResponseWriter, r *http.Request) {
	var req AllocateBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !checkBatchShape(w, req) {
		return
	}
	t, ok := s.resolve(w, req.InstanceParams, needIndex)
	if !ok {
		return
	}
	// One pin for the whole batch: every item is shaped against the same
	// campaign set and, when residual, the same remaining-budget snapshot.
	p := s.pin(t)
	coreReqs := make([]core.Request, len(req.Requests))
	for i, item := range req.Requests {
		coreReqs[i] = p.request(item, s.metrics, false)
	}
	ctx := r.Context()
	results := make([]core.BatchResult, len(coreReqs))
	started := time.Now()
	rrset.ParallelFor(len(coreReqs), batchInFlight, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return
		}
		results[i].Res, results[i].Err = t.Allocate(ctx, coreReqs[i])
	})
	s.metrics.allocSeconds.Observe(time.Since(started).Seconds())
	items := make([]BatchItemResult, len(results))
	for i, br := range results {
		items[i], _ = p.report(coreReqs[i], br.Res, br.Err)
	}
	writeJSON(w, http.StatusOK, AllocateBatchResponse{
		Key:          t.key,
		Epoch:        p.epoch,
		ColdBuild:    t.cold,
		AllocSeconds: time.Since(started).Seconds(),
		AdNames:      adNames(p.inst),
		Items:        items,
	})
}
