package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/shard"
)

// TestServerAllocateBatch pins the batch endpoint's contract on a single
// node: every item — whichever of κ, λ, ad subset, budgets or the residual
// ledger it overrides — reports what the lone /allocate for the same
// parameters reports, a bad item fails alone with the status the lone
// request gets, batch items count into adserver_kernel_selected_total, and
// shape violations are rejected.
func TestServerAllocateBatch(t *testing.T) {
	ts := testServer(t, Options{})
	params := fig1Request().InstanceParams
	opts := fig1Request().Opts

	// Spend first, so lone and batch residual runs read the same ledger:
	// ad a keeps 1 of its 4, ad d is depleted.
	spend := SpendRequest{InstanceParams: params, Spend: map[string]float64{"a": 3, "d": 5}}
	if code := postJSON(t, ts.URL+"/spend", spend, nil); code != http.StatusOK {
		t.Fatalf("spend returned %d", code)
	}

	lambda := 0.5
	items := []AllocateItem{
		{Opts: opts},
		{Opts: opts, Ads: []int{0, 99}}, // ad index out of range: fails alone
		{Opts: opts, Ads: []int{0, 2}, Lambda: &lambda},
		{Opts: opts, Kappa: 2},
		{Opts: opts, Budgets: []float64{1, 3, 2, 2}},
		{Opts: opts, Residual: true},
		{Opts: opts, Residual: true, Budgets: []float64{6, 2, 2, 6}, Kappa: 2, Lambda: &lambda},
	}
	// Reference: the lone /allocate per item shape, and its HTTP status.
	want := make([]AllocateResponse, len(items))
	status := make([]int, len(items))
	for i, item := range items {
		status[i] = postJSON(t, ts.URL+"/allocate", AllocateRequest{
			InstanceParams: params,
			Kappa:          item.Kappa,
			Lambda:         item.Lambda,
			Ads:            item.Ads,
			Budgets:        item.Budgets,
			Residual:       item.Residual,
			Opts:           item.Opts,
		}, &want[i])
	}

	const bitset = `adserver_kernel_selected_total{kernel="bitset"}`
	loneTally := metric(t, ts.URL, bitset)

	var got AllocateBatchResponse
	if code := postJSON(t, ts.URL+"/allocate/batch", AllocateBatchRequest{
		InstanceParams: params,
		Requests:       items,
	}, &got); code != http.StatusOK {
		t.Fatalf("batch returned %d", code)
	}
	if len(got.Items) != len(items) {
		t.Fatalf("batch returned %d items for %d requests", len(got.Items), len(items))
	}
	for i, item := range got.Items {
		if status[i] != http.StatusOK {
			if i != 1 || status[i] != http.StatusBadRequest {
				t.Fatalf("lone allocate for item %d returned %d", i, status[i])
			}
			if item.Error == "" || item.Status != status[i] {
				t.Errorf("bad item %d = %+v, want an error with the lone request's status %d", i, item, status[i])
			}
			continue
		}
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		if !reflect.DeepEqual(item.Seeds, want[i].Seeds) {
			t.Errorf("item %d seeds diverged from lone allocate\n want %v\n  got %v", i, want[i].Seeds, item.Seeds)
		}
		if !reflect.DeepEqual(item.EstRevenue, want[i].EstRevenue) {
			t.Errorf("item %d revenue diverged: %v vs %v", i, item.EstRevenue, want[i].EstRevenue)
		}
		if item.EstRegret != want[i].EstRegret {
			t.Errorf("item %d regret %v, lone %v", i, item.EstRegret, want[i].EstRegret)
		}
		if !reflect.DeepEqual(item.FinalTheta, want[i].FinalTheta) || item.Iterations != want[i].Iterations {
			t.Errorf("item %d ran θ %v in %d rounds, lone θ %v in %d", i, item.FinalTheta, item.Iterations, want[i].FinalTheta, want[i].Iterations)
		}
		if !reflect.DeepEqual(item.SpentBudgets, want[i].SpentBudgets) || (item.SpentBudgets != nil) != items[i].Residual {
			t.Errorf("item %d spentBudgets %v, lone %v (residual=%v)", i, item.SpentBudgets, want[i].SpentBudgets, items[i].Residual)
		}
		if got.Epoch != want[i].Epoch {
			t.Errorf("item %d epoch %d, batch %d", i, want[i].Epoch, got.Epoch)
		}
	}
	// The overrides bite: a depleted ad gets no seeds from a residual run.
	if n := len(got.Items[5].Seeds[3]); n != 0 {
		t.Errorf("residual item gave depleted ad d %d seeds", n)
	}

	// Kernel tallies count lone and batch successes alike — the batch adds
	// what the same runs added alone — all on bitset (the Fig. 1 toy is dense).
	if after := metric(t, ts.URL, bitset); loneTally == 0 || after != 2*loneTally {
		t.Errorf("%s = %d after the batch, %d after the lone runs", bitset, after, loneTally)
	}

	// Shape violations: empty and oversized batches.
	if code := postJSON(t, ts.URL+"/allocate/batch", AllocateBatchRequest{InstanceParams: params}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch returned %d, want 400", code)
	}
	over := AllocateBatchRequest{InstanceParams: params, Requests: make([]AllocateItem, MaxBatchItems+1)}
	if code := postJSON(t, ts.URL+"/allocate/batch", over, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch returned %d, want 400", code)
	}
}

// TestShardedServeBatch drives /allocate/batch through a 2-shard
// coordinator and pins every item against the single-node batch (itself
// already pinned against lone /allocate): distributed batching changes
// round trips, never allocations. It also runs at GOMAXPROCS 1 and 2,
// fewer workers than items, where the coordinator's old batch loop wedged
// the handler for good.
func TestShardedServeBatch(t *testing.T) {
	for _, procs := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			shardedServeBatch(t)
		})
	}
}

func shardedServeBatch(t *testing.T) {
	params := InstanceParams{Dataset: "flixster", Seed: 1, Scale: 0.01}
	opts := TIRMParams{Eps: 0.3, MinTheta: 1024, MaxTheta: 8192}
	batch := AllocateBatchRequest{
		InstanceParams: params,
		Requests: []AllocateItem{
			{Opts: opts},
			{Opts: opts, Budgets: []float64{-1}}, // one budget for ten ads: fails alone
			{Opts: opts, Ads: []int{0, 3}},
		},
	}

	single := testServer(t, Options{})
	var want AllocateBatchResponse
	if code := postJSON(t, single.URL+"/allocate/batch", batch, &want); code != http.StatusOK {
		t.Fatalf("single-node batch: %d", code)
	}

	front, _ := shardedServer(t, params, 2)
	var got AllocateBatchResponse
	if code := postJSON(t, front.URL+"/allocate/batch", batch, &got); code != http.StatusOK {
		t.Fatalf("sharded batch: %d", code)
	}
	if len(got.Items) != len(batch.Requests) {
		t.Fatalf("sharded batch returned %d items", len(got.Items))
	}
	for i := range got.Items {
		if i == 1 {
			if got.Items[i].Error == "" {
				t.Errorf("bad item 1 succeeded in coordinator mode")
			}
			continue
		}
		if got.Items[i].Error != "" {
			t.Fatalf("sharded item %d failed: %s", i, got.Items[i].Error)
		}
		if !reflect.DeepEqual(got.Items[i].Seeds, want.Items[i].Seeds) {
			t.Errorf("sharded item %d seeds diverged\n want %v\n  got %v", i, want.Items[i].Seeds, got.Items[i].Seeds)
		}
		if got.Items[i].EstRegret != want.Items[i].EstRegret {
			t.Errorf("sharded item %d regret %v, single-node %v", i, got.Items[i].EstRegret, want.Items[i].EstRegret)
		}
	}

	// Foreign-instance batches are refused like lone allocates.
	other := batch
	other.Seed = 99
	if code := postJSON(t, front.URL+"/allocate/batch", other, nil); code != http.StatusBadRequest {
		t.Errorf("foreign-instance batch returned %d, want 400", code)
	}
}

// TestBatchItemErrorIsolation pins per-item failure independence at the
// layer where every failure class is reachable: the HTTP handler pins one
// epoch for the whole batch (so a stale item cannot be synthesized over
// the wire), but the core batch engine it wraps evaluates each item's own
// pinned epoch — a mixed batch of valid, stale-epoch, and bad-request
// items must fail exactly the broken items and leave their siblings
// byte-identical to lone runs.
func TestBatchItemErrorIsolation(t *testing.T) {
	inst := gen.Fig1Instance(0)
	idx, err := core.BuildIndex(inst, 1, core.TIRMOptions{MaxTheta: 20000})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.TIRMOptions{MinTheta: 3000, MaxTheta: 20000}
	epoch := idx.Epoch()

	lone, err := core.AllocateFromIndex(idx, core.Request{Opts: opts, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		req       core.Request
		wantStale bool // else: wantErr distinguishes bad-request from ok
		wantErr   bool
	}{
		{name: "valid", req: core.Request{Opts: opts, Epoch: epoch}},
		{name: "stale-epoch", req: core.Request{Opts: opts, Epoch: epoch + 7}, wantStale: true, wantErr: true},
		{name: "bad-subset", req: core.Request{Opts: opts, Epoch: epoch, Ads: []int{99}}, wantErr: true},
		{name: "bad-budgets", req: core.Request{Opts: opts, Epoch: epoch, Budgets: []float64{1}}, wantErr: true},
		{name: "valid-again", req: core.Request{Opts: opts, Epoch: epoch}},
	}
	reqs := make([]core.Request, len(cases))
	for i, c := range cases {
		reqs[i] = c.req
	}
	results := core.AllocateBatch(idx, reqs)
	if len(results) != len(cases) {
		t.Fatalf("%d results for %d items", len(results), len(cases))
	}
	for i, c := range cases {
		br := results[i]
		if c.wantErr {
			if br.Err == nil {
				t.Errorf("%s: succeeded, want error", c.name)
				continue
			}
			if got := errors.Is(br.Err, core.ErrStaleEpoch); got != c.wantStale {
				t.Errorf("%s: stale=%v (err %v), want stale=%v", c.name, got, br.Err, c.wantStale)
			}
			continue
		}
		if br.Err != nil {
			t.Errorf("%s: failed alone: %v", c.name, br.Err)
			continue
		}
		if !reflect.DeepEqual(br.Res.Alloc.Seeds, lone.Alloc.Seeds) {
			t.Errorf("%s: seeds diverged from lone run despite broken siblings\n got %v\nwant %v",
				c.name, br.Res.Alloc.Seeds, lone.Alloc.Seeds)
		}
	}

	// The wire mapping: report translates each failure class to the status
	// a lone /allocate would have returned — 409 for stale epochs and 400
	// for a request Resolve refuses, on either engine (failureOf keeps 502
	// for a shard RPC that failed upstream; TestFailureOf).
	s := New(Options{Logf: t.Logf})
	staleRes := results[1]
	badRes := results[2]
	for _, c := range []struct {
		name       string
		br         core.BatchResult
		upstream   bool
		wantStatus int
	}{
		{"stale-local", staleRes, false, http.StatusConflict},
		{"stale-upstream", staleRes, true, http.StatusConflict},
		{"bad-local", badRes, false, http.StatusBadRequest},
		{"bad-upstream", badRes, true, http.StatusBadRequest},
	} {
		var eng engine = &entry{}
		if c.upstream {
			eng = &shardedState{}
		}
		p := &pinnedCampaign{s: s, target: target{campaign: &campaign{}, engine: eng}, inst: inst}
		out, _ := p.report(core.Request{}, c.br.Res, c.br.Err)
		if out.Status != c.wantStatus || out.Error == "" {
			t.Errorf("%s: status=%d error=%q, want status %d with message", c.name, out.Status, out.Error, c.wantStatus)
		}
		if out.Seeds != nil {
			t.Errorf("%s: failed item carries seeds", c.name)
		}
	}
}

// TestBatchCancelledRequest: a batch whose request context is already done
// starts none of its items. In both modes every item reports 499 with the
// context's error and is counted under reason canceled.
func TestBatchCancelledRequest(t *testing.T) {
	base := fig1Request()
	bothModes(t, base.InstanceParams, func(t *testing.T, ts *httptest.Server, _ bool) {
		items := make([]AllocateItem, 4)
		for i := range items {
			items[i].Opts = base.Opts
		}
		body, err := json.Marshal(AllocateBatchRequest{InstanceParams: base.InstanceParams, Requests: items})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/allocate/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("cancelled batch returned %d: %s", rec.Code, rec.Body)
		}
		var got AllocateBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Items) != len(items) {
			t.Fatalf("cancelled batch returned %d items for %d requests", len(got.Items), len(items))
		}
		for i, item := range got.Items {
			if item.Status != statusClientClosed || item.Error != context.Canceled.Error() || item.Seeds != nil {
				t.Errorf("item %d = %+v, want status %d with %q", i, item, statusClientClosed, context.Canceled)
			}
		}
		const canceled = `adserver_alloc_failures_total{reason="canceled"}`
		if n := metric(t, ts.URL, canceled); n != uint64(len(items)) {
			t.Errorf("%s = %d, want %d", canceled, n, len(items))
		}
	})
}

// roundCtx is a request context that cancels itself the second time its
// error is asked for. The selection loop asks once before each round, so a
// run under it is cancelled after its first round.
type roundCtx struct {
	context.Context
	cancel context.CancelFunc
	asked  atomic.Int32
}

func (c *roundCtx) Err() error {
	if c.asked.Add(1) == 2 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAllocateCancelledMidRun: an /allocate whose client hangs up after the
// run's first round stops there in both modes — the run ends with
// context.Canceled, the request answers 499 and is counted under reason
// canceled.
func TestAllocateCancelledMidRun(t *testing.T) {
	req := fig1Request()
	bothModes(t, req.InstanceParams, func(t *testing.T, ts *httptest.Server, coordinator bool) {
		if code := postJSON(t, ts.URL+"/allocate", req, nil); code != http.StatusOK {
			t.Fatalf("warm-up allocate returned %d", code)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		inner, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &roundCtx{Context: inner, cancel: cancel}
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/allocate", bytes.NewReader(body)))
		if rec.Code != statusClientClosed || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Fatalf("cancelled allocate returned %d: %s", rec.Code, rec.Body)
		}
		// Once before each of the two rounds; a coordinator asks once more,
		// deciding not to rerun a cancelled run.
		want := int32(2)
		if coordinator {
			want++
		}
		if n := ctx.asked.Load(); n != want {
			t.Fatalf("the request's context was asked %d times, want %d", n, want)
		}
		const canceled = `adserver_alloc_failures_total{reason="canceled"}`
		if n := metric(t, ts.URL, canceled); n != 1 {
			t.Errorf("%s = %d, want 1", canceled, n)
		}
	})
}

// TestFailureOf pins the one mapping from an engine error to its status and
// reason: a cancelled run is 499 on either engine, and a deadline stays
// the engine's generic failure.
func TestFailureOf(t *testing.T) {
	stale := fmt.Errorf("%w: request prepared for epoch 1", core.ErrStaleEpoch)
	for _, c := range []struct {
		name       string
		err        error
		upstream   bool
		wantStatus int
		wantReason string
	}{
		{"stale-local", stale, false, http.StatusConflict, failStaleEpoch},
		{"stale-upstream", stale, true, http.StatusConflict, failStaleEpoch},
		{"unavailable", fmt.Errorf("slot 1: %w", shard.ErrPartitionUnavailable), true, http.StatusServiceUnavailable, failUnavailable},
		{"canceled-local", context.Canceled, false, statusClientClosed, failCanceled},
		{"canceled-upstream", fmt.Errorf("shard 0: %w", context.Canceled), true, statusClientClosed, failCanceled},
		{"deadline-local", context.DeadlineExceeded, false, http.StatusBadRequest, failBadRequest},
		{"deadline-upstream", fmt.Errorf("shard 0: %w", context.DeadlineExceeded), true, http.StatusBadGateway, failUpstream},
		{"bad-local", errors.New("ad index 99 out of range"), false, http.StatusBadRequest, failBadRequest},
		{"bad-upstream", errors.New("shard 0: connection reset"), true, http.StatusBadGateway, failUpstream},
		{"invalid-local", fmt.Errorf("%w: request λ = -1 must be ≥ 0", core.ErrInvalidRequest), false, http.StatusBadRequest, failBadRequest},
		{"invalid-upstream", fmt.Errorf("%w: request selects ad 99, instance has 10", core.ErrInvalidRequest), true, http.StatusBadRequest, failBadRequest},
	} {
		status, reason, _ := failureOf(c.err, c.upstream)
		if status != c.wantStatus || reason != c.wantReason {
			t.Errorf("%s: failureOf = %d %q, want %d %q", c.name, status, reason, c.wantStatus, c.wantReason)
		}
	}
}
