// POST /feedback: online engagement learning over the campaign lifecycle.
//
// Allocation runs on each ad's declared cost-per-engagement, but real
// engagement rates are only revealed by serving: impressions go out, some
// click. /feedback ingests those click/impression batches into a per-ad
// bandit estimator (internal/bandit), and /allocate with "bandit": true
// applies the learned estimates as effective-CPE overrides — the closed
// loop the paper's regret objective wants when CPEs are not oracle truth.
//
// The estimator is keyed by ad NAME, not position, which makes /feedback
// epoch-tolerant by construction: events are accepted for any name — even
// one not currently in the campaign — so late-arriving feedback for a
// removed ad, or feedback racing a campaign mutation, lands in the table
// instead of bouncing with a 409. Event counts are additive integers, so
// concurrent batches commute and a serial replay of the same events
// reproduces the exact estimator state regardless of arrival order.
//
// The estimator lives on the serving host and nowhere else: revenue, the
// one thing the CPEs feed, is computed here in both modes, so /feedback
// makes no shard RPC and answers alike in both.

package serve

import (
	"fmt"
	"net/http"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/xrand"
)

// banditSeedSalt derives each campaign's estimator seed from its instance
// seed — the same salt internal/sim uses, so a server-side Thompson
// estimator fed a sim's event stream reproduces the sim's draws.
const banditSeedSalt = 0xba4d17

// FeedbackRequest is POST /feedback: apply a batch of engagement events to
// the campaign's bandit estimator, creating it on first use. Policy picks
// the estimator ("ucb", "thompson", or "frozen"; default "ucb") — once
// created, a conflicting Policy is a 409 unless Reset discards the learned
// state first. Events apply in order; an invalid event rejects the batch's
// tail with 400 but keeps the events before it (counts are additive, so
// re-sending only the corrected tail is safe).
type FeedbackRequest struct {
	InstanceParams
	Policy string         `json:"policy,omitempty"`
	Events []bandit.Event `json:"events,omitempty"`
	Reset  bool           `json:"reset,omitempty"`
}

// AdEstimate is one advertiser's learned-engagement line: lifetime counts,
// the smoothed click-through mean, the policy's allocation index (the
// factor bandit allocations scale the declared CPE by), and the index's
// exploration share (index minus mean, 0 = pure exploitation).
type AdEstimate struct {
	Name        string  `json:"name"`
	Impressions int64   `json:"impressions"`
	Clicks      int64   `json:"clicks"`
	Mean        float64 `json:"mean"`
	Index       float64 `json:"index"`
	Exploration float64 `json:"exploration"`
}

// FeedbackResponse is POST /feedback's result: the estimator's policy and
// lifetime event total, plus one estimate line per current campaign ad.
type FeedbackResponse struct {
	Key    string       `json:"key"`
	Policy string       `json:"policy"`
	Events int64        `json:"events"`
	Ads    []AdEstimate `json:"ads"`
}

// applyFeedback runs one request against the current estimator (nil if
// none exists yet) under the caller's lock and returns the estimator to
// store. The returned estimator reflects everything that applied: on an
// event error, the events before it are already counted. The non-nil
// error's HTTP status is the second return (400 or 409).
func applyFeedback(cur bandit.Estimator, req FeedbackRequest, seed uint64) (bandit.Estimator, int, error) {
	if req.Reset {
		cur = nil
	}
	if cur == nil {
		policy := req.Policy
		if policy == "" {
			policy = bandit.PolicyUCB
		}
		est, err := bandit.New(policy, xrand.New(seed).Split(banditSeedSalt).Seed())
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		cur = est
	} else if req.Policy != "" && req.Policy != cur.Policy() {
		return cur, http.StatusConflict, fmt.Errorf(
			"campaign already learns under policy %q; send reset to switch to %q", cur.Policy(), req.Policy)
	}
	for i, ev := range req.Events {
		if err := cur.Observe(ev); err != nil {
			return cur, http.StatusBadRequest, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return cur, 0, nil
}

// feedbackResponse assembles the per-ad estimate lines for inst's current
// campaign from est.
func feedbackResponse(key string, est bandit.Estimator, inst *core.Instance) FeedbackResponse {
	resp := FeedbackResponse{
		Key:    key,
		Policy: est.Policy(),
		Events: est.Events(),
		Ads:    make([]AdEstimate, len(inst.Ads)),
	}
	for j, ad := range inst.Ads {
		resp.Ads[j] = AdEstimate{
			Name:        ad.Name,
			Impressions: est.Impressions(ad.Name),
			Clicks:      est.Clicks(ad.Name),
			Mean:        est.Mean(ad.Name),
			Index:       est.Index(ad.Name),
			Exploration: est.Exploration(ad.Name),
		}
	}
	return resp
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Feedback is a ledger on names, not the sample: like /spend it must
	// never trigger index presampling, and the resolve pins a cache entry
	// so eviction cannot drop the learned state mid-request.
	t, ok := s.resolve(w, req.InstanceParams, needLedger)
	if !ok {
		return
	}
	defer t.release()
	est, status, ferr := t.feedback(req)
	if ferr != nil {
		httpError(w, status, "%v", ferr)
		return
	}
	s.metrics.feedbackUpdates.Inc()
	_, inst := t.EpochInst()
	resp := feedbackResponse(t.key, est, inst)
	s.metrics.recordFeedback(t.key, len(req.Events), resp.Ads)
	writeJSON(w, http.StatusOK, resp)
}

// overridesFor scales inst's declared CPEs by est's per-ad indices.
func overridesFor(est bandit.Estimator, inst *core.Instance) []float64 {
	names := make([]string, len(inst.Ads))
	base := make([]float64, len(inst.Ads))
	for j, ad := range inst.Ads {
		names[j] = ad.Name
		base[j] = ad.CPE
	}
	return est.Overrides(names, base)
}
