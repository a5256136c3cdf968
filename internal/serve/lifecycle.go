// Campaign lifecycle over HTTP: POST /ads, DELETE /ads/{name} and POST
// /spend, with their wire types. Written once against (campaign, engine)
// — see campaign.go.

package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
)

// NewAdSpec is core.AdSpec — the advertiser POST /ads creates, cloned from
// a template ad of the campaign — under the name this package has always
// exported it by.
type NewAdSpec = core.AdSpec

// AddAdRequest is POST /ads: add an advertiser to the cached campaign set.
type AddAdRequest struct {
	InstanceParams
	Ad NewAdSpec `json:"ad"`
}

// LifecycleResponse reports the campaign set after a POST /ads or
// DELETE /ads/{name} mutation. Position is the added ad's index (POST
// only); Epoch is the index version requests are now served on.
type LifecycleResponse struct {
	Key      string   `json:"key"`
	Epoch    uint64   `json:"epoch"`
	NumAds   int      `json:"numAds"`
	Position int      `json:"position,omitempty"`
	AdNames  []string `json:"adNames"`
}

func lifecycleResponse(t target, pos int) LifecycleResponse {
	epoch, inst := t.EpochInst()
	names := adNames(inst)
	return LifecycleResponse{Key: t.key, Epoch: epoch, NumAds: len(names), Position: pos, AdNames: names}
}

func (s *Server) handleAddAd(w http.ResponseWriter, r *http.Request) {
	var req AddAdRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolve(w, req.InstanceParams, needMutation)
	if !ok {
		return
	}
	defer t.release()
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	_, inst := t.EpochInst()
	spec := req.Ad
	ad, err := core.CloneAd(inst, spec)
	switch {
	case errors.Is(err, core.ErrAdExists):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case len(inst.Ads) >= s.opts.MaxAds:
		httpError(w, http.StatusBadRequest, "campaign set already at server limit of %d ads", s.opts.MaxAds)
		return
	}
	// The request is valid, so what the engine can still report is a
	// failure to apply it.
	pos, err := t.AddAd(r.Context(), spec, ad, core.TIRMOptions{MaxTheta: s.opts.MaxTheta})
	if err != nil {
		s.fail(w, err, t.upstream())
		return
	}
	s.metrics.adsAdded.Inc()
	s.metrics.epochSwaps.Inc()
	resp := lifecycleResponse(t, pos)
	s.opts.Logf("serve: %s added ad %q (template %d) at position %d, epoch %d",
		t.key, spec.Name, spec.Template, pos, resp.Epoch)
	writeJSON(w, http.StatusOK, resp)
}

// adParamsFromQuery parses the instance parameters a DELETE carries as
// query string (dataset, seed, scale, ads) — DELETEs have no body.
func adParamsFromQuery(r *http.Request) (InstanceParams, error) {
	var p InstanceParams
	q := r.URL.Query()
	p.Dataset = q.Get("dataset")
	if p.Dataset == "" {
		return p, fmt.Errorf("query parameter dataset required")
	}
	var err error
	if v := q.Get("seed"); v != "" {
		if p.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return p, fmt.Errorf("bad seed %q", v)
		}
	}
	if v := q.Get("scale"); v != "" {
		if p.Scale, err = strconv.ParseFloat(v, 64); err != nil {
			return p, fmt.Errorf("bad scale %q", v)
		}
	}
	if v := q.Get("ads"); v != "" {
		if p.NumAds, err = strconv.Atoi(v); err != nil {
			return p, fmt.Errorf("bad ads %q", v)
		}
	}
	return p, nil
}

func (s *Server) handleRemoveAd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "use DELETE")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/ads/")
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusBadRequest, "path must be /ads/{name}")
		return
	}
	p, err := adParamsFromQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t, ok := s.resolve(w, p, needMutation)
	if !ok {
		return
	}
	defer t.release()
	// lifeMu (not the ledger mutex) spans the lookup and the engine call,
	// so a slow shard stalls other mutations and /spend, which takes lifeMu
	// for its name check, but never an allocation, residual ones included:
	// those read the ledger under spendMu and pin an epoch.
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	_, inst := t.EpochInst()
	pos := adPosition(inst, name)
	if pos < 0 {
		httpError(w, http.StatusNotFound, "no ad %q in campaign %s", name, t.key)
		return
	}
	if len(inst.Ads) == 1 {
		// core.Index.RemoveAd's rule and message, applied before the engine
		// so a cluster is never asked to broadcast a request that is wrong.
		httpError(w, http.StatusBadRequest, "core: cannot remove the last ad")
		return
	}
	if err := t.RemoveAd(r.Context(), pos); err != nil {
		s.fail(w, err, t.upstream())
		return
	}
	t.forgetSpend(name)
	s.metrics.adsRemoved.Inc()
	s.metrics.epochSwaps.Inc()
	s.metrics.dropBanditEstimate(t.key, name)
	resp := lifecycleResponse(t, 0)
	s.opts.Logf("serve: %s removed ad %q (position %d), epoch %d", t.key, name, pos, resp.Epoch)
	writeJSON(w, http.StatusOK, resp)
}

// SpendRequest is POST /spend: add engagement spend to named ads (or with
// Reset, clear the ledger first). An empty Spend map just reads back the
// current budget status.
type SpendRequest struct {
	InstanceParams
	Spend map[string]float64 `json:"spend,omitempty"`
	Reset bool               `json:"reset,omitempty"`
}

// AdBudgetStatus is one advertiser's budget ledger line.
type AdBudgetStatus struct {
	Name     string  `json:"name"`
	Budget   float64 `json:"budget"`
	Spent    float64 `json:"spent"`
	Residual float64 `json:"residual"`
	Depleted bool    `json:"depleted"`
}

// SpendResponse is POST /spend's result: the full ledger after the update.
type SpendResponse struct {
	Key   string           `json:"key"`
	Epoch uint64           `json:"epoch,omitempty"`
	Ads   []AdBudgetStatus `json:"ads"`
}

func (s *Server) handleSpend(w http.ResponseWriter, r *http.Request) {
	var req SpendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Spend is a ledger on the instance, not the sample: like /evaluate it
	// must never trigger index presampling.
	t, ok := s.resolve(w, req.InstanceParams, needLedger)
	if !ok {
		return
	}
	defer t.release()
	// lifeMu keeps the name check and the ledger write atomic against
	// concurrent /ads mutations: without it, a DELETE racing in between
	// would leave an orphan ledger entry that a future ad reusing the name
	// silently inherits.
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	epoch, inst := t.EpochInst()
	for name, amount := range req.Spend {
		if adPosition(inst, name) < 0 {
			httpError(w, http.StatusNotFound, "no ad %q in campaign %s", name, t.key)
			return
		}
		if amount < 0 {
			httpError(w, http.StatusBadRequest, "spend %g for ad %q must be ≥ 0", amount, name)
			return
		}
	}
	resp := SpendResponse{Key: t.key, Epoch: epoch, Ads: t.applySpend(inst, req)}
	s.metrics.spendUpdates.Inc()
	writeJSON(w, http.StatusOK, resp)
}
