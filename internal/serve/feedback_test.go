package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/xrand"
)

// feedbackEvents is the deterministic batch the feedback tests feed: ad
// positions are fig1's a0..a3 names, with clearly separated engagement
// rates so the learned indices move the allocation.
func feedbackEvents(names []string) []bandit.Event {
	return []bandit.Event{
		{Ad: names[0], Impressions: 200, Clicks: 150},
		{Ad: names[1], Impressions: 200, Clicks: 10},
		{Ad: names[2], Impressions: 200, Clicks: 80},
		{Ad: names[3], Impressions: 200, Clicks: 40},
	}
}

// TestFeedbackEndToEnd drives the learning loop on a single node: feedback
// creates the estimator, estimates converge to the fed rates, a bandit
// allocation equals a direct core run with the same learned CPE overrides,
// and the counters/metrics surfaces record it all.
func TestFeedbackEndToEnd(t *testing.T) {
	ts := testServer(t, Options{})
	params := fig1Request().InstanceParams

	var warm AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", fig1Request(), &warm); code != http.StatusOK {
		t.Fatalf("warm allocate: %d", code)
	}
	names := warm.AdNames

	var fb FeedbackResponse
	if code := postJSON(t, ts.URL+"/feedback", FeedbackRequest{
		InstanceParams: params,
		Events:         feedbackEvents(names),
	}, &fb); code != http.StatusOK {
		t.Fatalf("feedback: %d", code)
	}
	if fb.Policy != bandit.PolicyUCB {
		t.Errorf("default policy = %q, want ucb", fb.Policy)
	}
	if fb.Events != 4 || len(fb.Ads) != len(names) {
		t.Fatalf("feedback reply = %+v", fb)
	}
	// 150/200 smoothed = 151/202; the reply must carry the exact counts.
	if fb.Ads[0].Impressions != 200 || fb.Ads[0].Clicks != 150 {
		t.Errorf("ad0 counts = %+v", fb.Ads[0])
	}
	if want := 151.0 / 202.0; fb.Ads[0].Mean != want {
		t.Errorf("ad0 mean = %v, want %v", fb.Ads[0].Mean, want)
	}
	for _, a := range fb.Ads {
		if a.Index <= 0 || a.Index > 1 {
			t.Errorf("ad %s index %v outside (0, 1]", a.Name, a.Index)
		}
		if a.Exploration < 0 || a.Exploration > 1 {
			t.Errorf("ad %s exploration %v outside [0, 1]", a.Name, a.Exploration)
		}
	}

	// Ground truth: the same events through a fresh estimator with the
	// server's seed derivation, applied as CPE overrides on a fresh index.
	inst := gen.Fig1Instance(0)
	est, err := bandit.New(bandit.PolicyUCB, xrand.New(params.Seed).Split(banditSeedSalt).Seed())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range feedbackEvents(names) {
		if err := est.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := core.BuildIndex(inst, params.Seed, core.TIRMOptions{MaxTheta: DefaultMaxTheta})
	if err != nil {
		t.Fatal(err)
	}
	opts := fig1Request().Opts
	want, err := core.AllocateFromIndex(idx, core.Request{
		Opts: opts.toOptions(DefaultMaxTheta),
		CPEs: overridesFor(est, inst),
	})
	if err != nil {
		t.Fatal(err)
	}

	banditReq := fig1Request()
	banditReq.Bandit = true
	var got AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", banditReq, &got); code != http.StatusOK {
		t.Fatalf("bandit allocate: %d", code)
	}
	for i, row := range want.Alloc.Seeds {
		if row == nil {
			want.Alloc.Seeds[i] = []int32{} // match the wire shape ([] for empty)
		}
	}
	if !reflect.DeepEqual(got.Seeds, want.Alloc.Seeds) {
		t.Errorf("bandit allocation diverged from core run with learned overrides\n got %v\nwant %v",
			got.Seeds, want.Alloc.Seeds)
	}

	if got := metric(t, ts.URL, "adserver_feedback_updates_total"); got != 1 {
		t.Errorf("adserver_feedback_updates_total = %d, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	expo := string(buf[:n])
	for _, want := range []string{
		"adserver_feedback_events_total 4",
		`adserver_bandit_estimate{campaign="` + fig1Request().Key() + `",ad="` + names[0] + `"}`,
		"adserver_bandit_exploration_count",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBanditEstimatePerCampaign: generated campaigns share ad names, so the
// learned-estimate gauge is keyed by campaign as well as ad. Feedback on one
// campaign must leave another's series alone, and evicting a campaign must
// delete its own series only.
func TestBanditEstimatePerCampaign(t *testing.T) {
	ts := testServer(t, Options{MaxEntries: 2})
	campaign := func(seed uint64) InstanceParams {
		p := fig1Request().InstanceParams
		p.Seed = seed
		return p
	}
	ad := gen.Fig1Instance(0).Ads[0].Name
	estimate := func(p InstanceParams) (float64, bool) {
		t.Helper()
		sample := `adserver_bandit_estimate{campaign="` + p.Key() + `",ad="` + ad + `"} `
		for _, line := range strings.Split(scrapeMetrics(t, ts.URL), "\n") {
			if v, ok := strings.CutPrefix(line, sample); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				return f, true
			}
		}
		return 0, false
	}
	one, two := campaign(1), campaign(2)
	for _, c := range []struct {
		p      InstanceParams
		clicks int64
	}{{one, 150}, {two, 10}} {
		req := FeedbackRequest{InstanceParams: c.p, Events: []bandit.Event{{Ad: ad, Impressions: 200, Clicks: c.clicks}}}
		if code := postJSON(t, ts.URL+"/feedback", req, nil); code != http.StatusOK {
			t.Fatalf("feedback on seed %d: %d", c.p.Seed, code)
		}
	}
	if got, ok := estimate(one); !ok || got != 151.0/202.0 {
		t.Errorf("seed 1 estimate after feedback on seed 2 = %v (present %v), want %v", got, ok, 151.0/202.0)
	}
	if got, ok := estimate(two); !ok || got != 11.0/202.0 {
		t.Errorf("seed 2 estimate = %v (present %v), want %v", got, ok, 11.0/202.0)
	}

	// A third campaign evicts the least recently used one, seed 1.
	third := fig1Request()
	third.Seed = 3
	if code := postJSON(t, ts.URL+"/allocate", third, nil); code != http.StatusOK {
		t.Fatalf("allocate seed 3: %d", code)
	}
	if got, ok := estimate(one); ok {
		t.Errorf("evicted seed 1 still exposes its estimate %v", got)
	}
	if got, ok := estimate(two); !ok || got != 11.0/202.0 {
		t.Errorf("seed 2 estimate after evicting seed 1 = %v (present %v), want %v", got, ok, 11.0/202.0)
	}
}

// TestFeedbackPolicyLifecycle pins the estimator's create/conflict/reset
// protocol and the request-shape rejections, in both modes.
func TestFeedbackPolicyLifecycle(t *testing.T) {
	params := fig1Request().InstanceParams
	bothModes(t, params, func(t *testing.T, ts *httptest.Server, _ bool) {
		url := ts.URL
		post := func(req FeedbackRequest, out any) int {
			t.Helper()
			req.InstanceParams = params
			return postJSON(t, url+"/feedback", req, out)
		}

		// A bandit allocation before any feedback has no estimator: 400.
		noEst := fig1Request()
		noEst.Bandit = true
		if code := postJSON(t, url+"/allocate", noEst, nil); code != http.StatusBadRequest {
			t.Errorf("bandit allocate without estimator: %d, want 400", code)
		}

		var fb FeedbackResponse
		if code := post(FeedbackRequest{Policy: bandit.PolicyThompson}, &fb); code != http.StatusOK {
			t.Fatalf("create thompson: %d", code)
		}
		if fb.Policy != bandit.PolicyThompson {
			t.Fatalf("policy = %q", fb.Policy)
		}
		// Same policy and no policy are both fine; a different one conflicts.
		if code := post(FeedbackRequest{Policy: bandit.PolicyThompson}, nil); code != http.StatusOK {
			t.Errorf("same policy: %d", code)
		}
		if code := post(FeedbackRequest{}, nil); code != http.StatusOK {
			t.Errorf("no policy: %d", code)
		}
		if code := post(FeedbackRequest{Policy: bandit.PolicyUCB}, nil); code != http.StatusConflict {
			t.Errorf("conflicting policy: %d, want 409", code)
		}
		// Reset discards the learned state and switches policy.
		if code := post(FeedbackRequest{Policy: bandit.PolicyUCB, Reset: true}, &fb); code != http.StatusOK {
			t.Fatalf("reset to ucb: %d", code)
		}
		if fb.Policy != bandit.PolicyUCB || fb.Events != 0 {
			t.Errorf("after reset: %+v", fb)
		}

		// Shape rejections: unknown policy, invalid event.
		if code := post(FeedbackRequest{Policy: "epsilon-greedy", Reset: true}, nil); code != http.StatusBadRequest {
			t.Errorf("unknown policy: %d, want 400", code)
		}
		if code := post(FeedbackRequest{Events: []bandit.Event{
			{Ad: "a0", Impressions: 1, Clicks: 5},
		}}, nil); code != http.StatusBadRequest {
			t.Errorf("clicks > impressions: %d, want 400", code)
		}
		// Events for names outside the campaign are accepted: feedback is
		// epoch-tolerant and name-keyed, so late events for a retired ad land.
		if code := post(FeedbackRequest{Events: []bandit.Event{
			{Ad: "long-gone", Impressions: 10, Clicks: 1},
		}}, nil); code != http.StatusOK {
			t.Errorf("unknown-name event: %d, want 200", code)
		}

		// A bandit allocation with explicit CPEs is a 400 too.
		both := fig1Request()
		both.Bandit = true
		both.CPEs = []float64{1, 1, 1, 1}
		if code := postJSON(t, url+"/allocate", both, nil); code != http.StatusBadRequest {
			t.Errorf("bandit with explicit cpes: %d, want 400", code)
		}
	})
}

// TestShardedFeedbackMatchesSingleNode drives /feedback and a bandit
// /allocate through a 2-shard coordinator: the feedback reply is the
// single node's to the field, and the learned allocation is byte-identical
// to single-node serving of the same events.
func TestShardedFeedbackMatchesSingleNode(t *testing.T) {
	params := InstanceParams{Dataset: "fig1", Seed: 1, Scale: 0.05}
	req := AllocateRequest{
		InstanceParams: params,
		Opts:           TIRMParams{MinTheta: 3000, MaxTheta: 20000},
		Bandit:         true,
	}
	events := feedbackEvents([]string{"a", "b", "c", "d"})

	single := testServer(t, Options{})
	var wantFB FeedbackResponse
	if code := postJSON(t, single.URL+"/feedback", FeedbackRequest{
		InstanceParams: params, Events: events,
	}, &wantFB); code != http.StatusOK {
		t.Fatalf("single-node feedback: %d", code)
	}
	var want AllocateResponse
	if code := postJSON(t, single.URL+"/allocate", req, &want); code != http.StatusOK {
		t.Fatalf("single-node bandit allocate: %d", code)
	}

	front, srv := shardedServer(t, params, 2)
	var fb FeedbackResponse
	if code := postJSON(t, front.URL+"/feedback", FeedbackRequest{
		InstanceParams: params, Events: events,
	}, &fb); code != http.StatusOK {
		t.Fatalf("sharded feedback: %d", code)
	}
	if !reflect.DeepEqual(wantFB, fb) {
		t.Errorf("sharded feedback reply diverged\n want %+v\n  got %+v", wantFB, fb)
	}
	var got AllocateResponse
	if code := postJSON(t, front.URL+"/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("sharded bandit allocate: %d", code)
	}
	if !reflect.DeepEqual(want.Seeds, got.Seeds) {
		t.Errorf("sharded bandit allocation diverged\n want %v\n  got %v", want.Seeds, got.Seeds)
	}

	// The estimator on the host holds every event.
	srv.sharded.estMu.Lock()
	hostSnap := srv.sharded.est.Snapshot()
	srv.sharded.estMu.Unlock()
	if hostSnap.Events != int64(len(events)) {
		t.Errorf("host estimator events = %d, want %d", hostSnap.Events, len(events))
	}
}
