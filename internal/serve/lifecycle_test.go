package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/leakcheck"
)

func deleteReq(t *testing.T, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServerLifecycleEndToEnd drives the campaign loop over HTTP: allocate
// → add an advertiser → record spend → residual re-allocation → retire the
// advertiser → stats reflecting it all.
func TestServerLifecycleEndToEnd(t *testing.T) {
	ts := testServer(t, Options{})
	base := fig1Request()

	var first AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", base, &first); code != http.StatusOK {
		t.Fatalf("baseline allocate returned %d", code)
	}
	if first.Epoch != 1 {
		t.Errorf("fresh index served epoch %d, want 1", first.Epoch)
	}

	// Join: a new advertiser riding ad a's propagation profile.
	var added LifecycleResponse
	add := AddAdRequest{
		InstanceParams: base.InstanceParams,
		Ad:             NewAdSpec{Name: "promo", Budget: 3, CPE: 1, CTP: 0.5, Template: 0},
	}
	if code := postJSON(t, ts.URL+"/ads", add, &added); code != http.StatusOK {
		t.Fatalf("POST /ads returned %d", code)
	}
	if added.Epoch != 2 || added.NumAds != 5 || added.Position != 4 {
		t.Fatalf("add response %+v, want epoch 2, 5 ads, position 4", added)
	}

	// The campaign view every other endpoint sees follows the mutation:
	// /evaluate now wants 5 seed rows.
	eval4 := EvaluateRequest{InstanceParams: base.InstanceParams, Seeds: [][]int32{{0}, {1}, {2}, {3}}}
	if code := postJSON(t, ts.URL+"/evaluate", eval4, nil); code != http.StatusBadRequest {
		t.Errorf("4-row evaluate after add returned %d, want 400", code)
	}
	eval5 := EvaluateRequest{InstanceParams: base.InstanceParams, Seeds: [][]int32{{0}, {1}, {2}, {3}, {4}}, Runs: 100}
	if code := postJSON(t, ts.URL+"/evaluate", eval5, nil); code != http.StatusOK {
		t.Errorf("5-row evaluate after add returned %d, want 200", code)
	}

	// Deplete ad a completely and check the ledger.
	var ledger SpendResponse
	spend := SpendRequest{InstanceParams: base.InstanceParams, Spend: map[string]float64{"a": 4}}
	if code := postJSON(t, ts.URL+"/spend", spend, &ledger); code != http.StatusOK {
		t.Fatalf("POST /spend returned %d", code)
	}
	if len(ledger.Ads) != 5 {
		t.Fatalf("ledger covers %d ads, want 5", len(ledger.Ads))
	}
	if a := ledger.Ads[0]; a.Name != "a" || !a.Depleted || a.Residual != 0 {
		t.Errorf("ad a ledger %+v, want depleted with residual 0", a)
	}

	// Residual allocation: the depleted ad must receive no seeds.
	resReq := base
	resReq.Residual = true
	var res AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", resReq, &res); code != http.StatusOK {
		t.Fatalf("residual allocate returned %d", code)
	}
	if res.Epoch != 2 {
		t.Errorf("residual allocate served epoch %d, want 2", res.Epoch)
	}
	if len(res.SpentBudgets) != 5 || res.SpentBudgets[0] != 4 {
		t.Errorf("residual allocate echoed spentBudgets %v", res.SpentBudgets)
	}
	if len(res.Seeds[0]) != 0 {
		t.Errorf("depleted ad a still got seeds %v", res.Seeds[0])
	}

	// Retire the joined ad.
	var removed LifecycleResponse
	url := fmt.Sprintf("%s/ads/promo?dataset=%s&seed=%d&scale=%g", ts.URL, base.Dataset, base.Seed, base.Scale)
	if code := deleteReq(t, url, &removed); code != http.StatusOK {
		t.Fatalf("DELETE /ads/promo returned %d", code)
	}
	if removed.Epoch != 3 || removed.NumAds != 4 {
		t.Fatalf("remove response %+v, want epoch 3 with 4 ads", removed)
	}
	if code := deleteReq(t, url, nil); code != http.StatusNotFound {
		t.Errorf("second DELETE returned %d, want 404", code)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	for sample, want := range map[string]uint64{
		"adserver_ads_added_total": 1, "adserver_ads_removed_total": 1,
		"adserver_spend_updates_total": 1, "adserver_epoch_swaps_total": 2,
	} {
		if got := metric(t, ts.URL, sample); got != want {
			t.Errorf("%s = %d, want %d", sample, got, want)
		}
	}
	if len(stats.Entries) != 1 || stats.Entries[0].Epoch != 3 || stats.Entries[0].SpentTotal != 4 {
		t.Errorf("entry stats %+v, want epoch 3 and spentTotal 4", stats.Entries)
	}
}

// bothModes runs fn once against a single-node server and once against a
// coordinator over two in-process shards serving params — the same inputs
// on either side of the engine seam. Both run under leakcheck.
func bothModes(t *testing.T, params InstanceParams, fn func(t *testing.T, ts *httptest.Server, coordinator bool)) {
	t.Run("single-node", func(t *testing.T) { fn(t, testServer(t, Options{}), false) })
	t.Run("coordinator", func(t *testing.T) {
		leakcheck.Check(t)
		front, _ := shardedServer(t, params, 2)
		fn(t, front, true)
	})
}

// TestServerLifecycleValidation: malformed mutations are refused with the
// right status codes and leave the campaign untouched — in both modes, by
// the one set of handlers.
func TestServerLifecycleValidation(t *testing.T) {
	base := fig1Request()
	bothModes(t, base.InstanceParams, func(t *testing.T, ts *httptest.Server, coordinator bool) {
		url := ts.URL
		if code := postJSON(t, url+"/allocate", base, nil); code != http.StatusOK {
			t.Fatalf("baseline allocate returned %d", code)
		}

		cases := []struct {
			name string
			ad   NewAdSpec
			want int
		}{
			{"missing name", NewAdSpec{Budget: 1, CPE: 1}, http.StatusBadRequest},
			{"duplicate name", NewAdSpec{Name: "a", Budget: 1, CPE: 1}, http.StatusConflict},
			{"bad template", NewAdSpec{Name: "x", Budget: 1, CPE: 1, Template: 9}, http.StatusBadRequest},
			{"bad ctp", NewAdSpec{Name: "x", Budget: 1, CPE: 1, CTP: 2}, http.StatusBadRequest},
			{"bad budget", NewAdSpec{Name: "x", Budget: -1, CPE: 1}, http.StatusBadRequest},
		}
		for _, tc := range cases {
			req := AddAdRequest{InstanceParams: base.InstanceParams, Ad: tc.ad}
			if code := postJSON(t, url+"/ads", req, nil); code != tc.want {
				t.Errorf("%s: POST /ads returned %d, want %d", tc.name, code, tc.want)
			}
		}

		spendCases := []struct {
			name  string
			spend map[string]float64
			want  int
		}{
			{"unknown ad", map[string]float64{"zz": 1}, http.StatusNotFound},
			{"negative", map[string]float64{"a": -2}, http.StatusBadRequest},
		}
		for _, tc := range spendCases {
			req := SpendRequest{InstanceParams: base.InstanceParams, Spend: tc.spend}
			if code := postJSON(t, url+"/spend", req, nil); code != tc.want {
				t.Errorf("%s: POST /spend returned %d, want %d", tc.name, code, tc.want)
			}
		}

		if code := deleteReq(t, url+"/ads/a", nil); code != http.StatusBadRequest {
			t.Errorf("DELETE without dataset returned %d, want 400", code)
		}
		if code := deleteReq(t, url+"/ads/?dataset=fig1&seed=1&scale=0.05", nil); code != http.StatusBadRequest {
			t.Errorf("DELETE without name returned %d, want 400", code)
		}
		if code := deleteReq(t, url+"/ads/zz?dataset=fig1&seed=1&scale=0.05", nil); code != http.StatusNotFound {
			t.Errorf("DELETE of an unknown ad returned %d, want 404", code)
		}

		// Campaign must still be the original four ads.
		var stats StatsResponse
		if code := getJSON(t, url+"/stats", &stats); code != http.StatusOK {
			t.Fatal("stats failed")
		}
		if coordinator {
			sh := stats.Sharded
			if sh == nil || sh.Epoch != 1 || sh.Shards[0].NumAds != 4 || sh.Shards[0].Epoch != 1 {
				t.Errorf("cluster after refused mutations: %+v, want 4 ads at epoch 1", sh)
			}
		} else if len(stats.Entries) != 1 || stats.Entries[0].NumAds != 4 || stats.Entries[0].Epoch != 1 {
			t.Errorf("entry after refused mutations: %+v, want 4 ads at epoch 1", stats.Entries)
		}

		// A campaign cannot lose its last ad: 400, not an engine failure.
		for _, name := range []string{"b", "c", "d"} {
			if code := deleteReq(t, url+"/ads/"+name+"?dataset=fig1&seed=1&scale=0.05", nil); code != http.StatusOK {
				t.Fatalf("DELETE /ads/%s returned %d", name, code)
			}
		}
		if code := deleteReq(t, url+"/ads/a?dataset=fig1&seed=1&scale=0.05", nil); code != http.StatusBadRequest {
			t.Errorf("DELETE of the last ad returned %d, want 400", code)
		}
	})
}

// TestServerMaxAds: a campaign at Options.MaxAds refuses a valid POST /ads
// with 400 in both modes.
func TestServerMaxAds(t *testing.T) {
	base := fig1Request()
	add := AddAdRequest{InstanceParams: base.InstanceParams, Ad: NewAdSpec{Name: "promo", Budget: 1, CPE: 1}}
	single := testServer(t, Options{MaxAds: 4})
	if code := postJSON(t, single.URL+"/ads", add, nil); code != http.StatusBadRequest {
		t.Errorf("single-node POST /ads at MaxAds returned %d, want 400", code)
	}
	front, srv := shardedServer(t, base.InstanceParams, 2)
	srv.opts.MaxAds = 4
	if code := postJSON(t, front.URL+"/ads", add, nil); code != http.StatusBadRequest {
		t.Errorf("coordinator POST /ads at MaxAds returned %d, want 400", code)
	}
}

// TestServerLifecycleSurvivesEviction: an entry carrying campaign state
// (mutations, spend ledger) is exempt from LRU eviction — evicting it
// would silently resurrect the pre-mutation campaign with full budgets.
func TestServerLifecycleSurvivesEviction(t *testing.T) {
	ts := testServer(t, Options{MaxEntries: 1})
	base := fig1Request()
	add := AddAdRequest{
		InstanceParams: base.InstanceParams,
		Ad:             NewAdSpec{Name: "promo", Budget: 3, CPE: 1},
	}
	if code := postJSON(t, ts.URL+"/ads", add, nil); code != http.StatusOK {
		t.Fatalf("POST /ads returned %d", code)
	}
	spend := SpendRequest{InstanceParams: base.InstanceParams, Spend: map[string]float64{"a": 4}}
	if code := postJSON(t, ts.URL+"/spend", spend, nil); code != http.StatusOK {
		t.Fatalf("POST /spend returned %d", code)
	}

	// Pressure the cache with two other keys; without the lifecycle
	// exemption the mutated entry would be the LRU victim.
	for seed := uint64(7); seed < 9; seed++ {
		other := fig1Request()
		other.Seed = seed
		if code := postJSON(t, ts.URL+"/allocate", other, nil); code != http.StatusOK {
			t.Fatalf("allocate seed %d returned %d", seed, code)
		}
	}

	req := base
	req.Residual = true
	var res AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", req, &res); code != http.StatusOK {
		t.Fatalf("residual allocate after eviction pressure returned %d", code)
	}
	if res.Epoch != 2 || len(res.AdNames) != 5 {
		t.Errorf("mutated campaign lost to eviction: epoch %d with %d ads, want epoch 2 with 5", res.Epoch, len(res.AdNames))
	}
	if len(res.SpentBudgets) != 5 || res.SpentBudgets[0] != 4 {
		t.Errorf("spend ledger lost to eviction: %v", res.SpentBudgets)
	}
	if len(res.Seeds[0]) != 0 {
		t.Errorf("depleted ad a got seeds %v after eviction pressure", res.Seeds[0])
	}
}

// TestServerLiveCampaignCap: lifecycle state exempts entries from LRU
// eviction, so the server refuses (503) to pin more campaigns than
// MaxEntries — otherwise one client could grow memory without bound by
// spending a unit against every key.
func TestServerLiveCampaignCap(t *testing.T) {
	ts := testServer(t, Options{MaxEntries: 1})
	pin := func(seed uint64) int {
		req := SpendRequest{
			InstanceParams: InstanceParams{Dataset: "fig1", Seed: seed, Scale: 0.05},
			Spend:          map[string]float64{"a": 1},
		}
		return postJSON(t, ts.URL+"/spend", req, nil)
	}
	if code := pin(1); code != http.StatusOK {
		t.Fatalf("first campaign pin returned %d", code)
	}
	if code := pin(2); code != http.StatusServiceUnavailable {
		t.Errorf("pin past the live-campaign cap returned %d, want 503", code)
	}
	// Spending further against the already-pinned campaign still works.
	if code := pin(1); code != http.StatusOK {
		t.Errorf("spend on an already-live campaign returned %d, want 200", code)
	}
	// Resetting the ledger releases the slot for another campaign.
	reset := SpendRequest{InstanceParams: InstanceParams{Dataset: "fig1", Seed: 1, Scale: 0.05}, Reset: true}
	if code := postJSON(t, ts.URL+"/spend", reset, nil); code != http.StatusOK {
		t.Fatalf("ledger reset returned %d", code)
	}
	if code := pin(2); code != http.StatusOK {
		t.Errorf("pin after releasing the slot returned %d, want 200", code)
	}
	// The refusal is counted whichever endpoint hit the cap.
	if got := metric(t, ts.URL, `adserver_alloc_failures_total{reason="cap"}`); got != 1 {
		t.Errorf("cap refusals = %d, want 1", got)
	}
}

// TestServerEvaluateEpochPinning: /evaluate with the epoch an allocation
// was served on is refused (409) once the campaign has changed — seeds
// rows are positional, and equal-count churn would silently misalign them.
func TestServerEvaluateEpochPinning(t *testing.T) {
	ts := testServer(t, Options{})
	base := fig1Request()
	var alloc AllocateResponse
	if code := postJSON(t, ts.URL+"/allocate", base, &alloc); code != http.StatusOK {
		t.Fatal("baseline allocate failed")
	}
	eval := EvaluateRequest{
		InstanceParams: base.InstanceParams,
		Seeds:          alloc.Seeds,
		Runs:           100,
		Epoch:          alloc.Epoch,
	}
	if code := postJSON(t, ts.URL+"/evaluate", eval, nil); code != http.StatusOK {
		t.Errorf("same-epoch evaluate returned %d, want 200", code)
	}

	add := AddAdRequest{InstanceParams: base.InstanceParams, Ad: NewAdSpec{Name: "promo", Budget: 3, CPE: 1}}
	if code := postJSON(t, ts.URL+"/ads", add, nil); code != http.StatusOK {
		t.Fatal("POST /ads failed")
	}
	if code := postJSON(t, ts.URL+"/evaluate", eval, nil); code != http.StatusConflict {
		t.Errorf("stale-epoch evaluate returned %d, want 409", code)
	}
	eval.Epoch = 0
	eval.Seeds = append(alloc.Seeds, []int32{})
	if code := postJSON(t, ts.URL+"/evaluate", eval, nil); code != http.StatusOK {
		t.Errorf("unpinned current-shape evaluate returned %d, want 200", code)
	}
}

// TestServerLifecycleConcurrency hammers mutations, spend updates, and
// residual allocations concurrently; the race detector is the main
// assertion, and every allocation must come back either consistent (200)
// or as a clean epoch conflict (409).
func TestServerLifecycleConcurrency(t *testing.T) {
	ts := testServer(t, Options{})
	base := fig1Request()
	if code := postJSON(t, ts.URL+"/allocate", base, nil); code != http.StatusOK {
		t.Fatalf("baseline allocate returned %d", code)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				add := AddAdRequest{InstanceParams: base.InstanceParams, Ad: NewAdSpec{Name: name, Budget: 1, CPE: 1}}
				if code := postJSON(t, ts.URL+"/ads", add, nil); code != http.StatusOK {
					t.Errorf("concurrent add %s: %d", name, code)
					return
				}
				url := fmt.Sprintf("%s/ads/%s?dataset=%s&seed=%d&scale=%g", ts.URL, name, base.Dataset, base.Seed, base.Scale)
				if code := deleteReq(t, url, nil); code != http.StatusOK {
					t.Errorf("concurrent remove %s: %d", name, code)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := base
			req.Residual = true
			for i := 0; i < 5; i++ {
				spend := SpendRequest{InstanceParams: base.InstanceParams, Spend: map[string]float64{"b": 0.05}}
				if code := postJSON(t, ts.URL+"/spend", spend, nil); code != http.StatusOK {
					t.Errorf("concurrent spend: %d", code)
					return
				}
				code := postJSON(t, ts.URL+"/allocate", req, nil)
				if code != http.StatusOK && code != http.StatusConflict {
					t.Errorf("concurrent residual allocate: %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
}
