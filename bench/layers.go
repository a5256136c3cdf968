package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/rrset"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// clusterK is the shard count of the ladder's distributed rungs.
const clusterK = 4

func mb(b int64) float64         { return float64(b) / 1e6 }
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func (g *rung) median() float64  { return g.durs.median() }

// layers is the traced run: each layer times its build stages once and hangs
// its rungs on the ladder; the ladder is climbed; each layer then turns its
// rungs and spans into the per-layer metrics.
func (r *run) layers(ctx context.Context) error {
	defer r.cleanup()
	l := &ladder{r: r, budget: r.w.rungBudget, rpc: make([]atomic.Int64, clusterK)}
	for i := range l.rpc {
		l.rpc[i].Store(noSpan)
	}
	l.opts = core.TIRMOptions{MaxTheta: r.w.maxTheta}
	l.req = core.Request{Opts: l.opts}
	rec := newRecorder()
	l.rec.Store(rec)
	l.root = rec.start(noSpan, "bench", "traced-run", 0)
	defer func() {
		for _, c := range l.closers {
			c()
		}
	}()

	for _, layer := range []func(context.Context) error{l.gen, l.rrset, l.core, l.shard, l.serve, l.obs} {
		if err := layer(ctx); err != nil {
			return err
		}
	}
	ladderSpan := rec.start(l.root, "bench", "ladder", 0)
	untraced, traced, err := l.climb(ctx, rec, ladderSpan)
	rec.end(ladderSpan)
	if err != nil {
		return err
	}
	r.res.set("obs.bench_trace_overhead_pct", (traced.Seconds()/untraced.Seconds()-1)*100, "%", 1)
	r.res.extra("ladder.untraced_s", untraced.Seconds(), "s", 1)
	r.res.extra("ladder.traced_s", traced.Seconds(), "s", 1)
	if err := l.eval(ctx); err != nil {
		return err
	}
	rec.end(l.root)
	for _, report := range l.reports {
		if err := report(); err != nil {
			return err
		}
	}
	return l.summary(rec)
}

func (l *ladder) gen(context.Context) error {
	d, err := l.stage("gen", "instance", l.r.generate)
	l.r.res.set("gen.instance_s", d.Seconds(), "s", 1)
	return err
}

// bitmapCap bounds the membership bitmap the forced-bitset sweep may build:
// the bitmap is nodes × ⌈sets/64⌉ words whatever the density, which at paper
// scale (317K nodes) would be gigabytes for a sample the sparse kernel sweeps
// in megabytes. Both kernels sweep the same prefix of the sample, sized so
// the bitmap fits.
const bitmapCap = 256 << 20

// rrset samples ad 0's stream as the index would, then times the inverted
// index, the cover join, the codec, and a full CoverNode sweep under each
// kernel.
func (l *ladder) rrset(context.Context) error {
	r, res := l.r, l.r.res
	inst := r.inst
	n := inst.G.N()
	ad := inst.Ads[0]
	sampler := rrset.NewSampler(inst.G, ad.Params.Probs, ad.Params.CTPs)
	count := rrset.StreamCeil(min(r.w.maxTheta, 250000))
	fam := rrset.NewSetFamily()
	d, _ := l.stage("rrset", "sample", func() error {
		sampler.SampleRangeRRInto(0, count, xrand.New(r.params.Seed).Split(400), fam)
		return nil
	})
	res.set("rrset.sample_sets_per_s", float64(fam.Len())/d.Seconds(), "1/s", fam.Len())
	res.set("rrset.members_per_set", float64(fam.NumMembers())/float64(fam.Len()), "count", fam.Len())
	var inv *rrset.Inverted
	d, _ = l.stage("rrset", "build_inverted", func() error { inv = rrset.BuildInverted(n, fam.View(), 0); return nil })
	res.set("rrset.build_inverted_ms", ms(d), "ms", 1)
	d, _ = l.stage("rrset", "prepare_cover", func() error { inv.PrepareCover(); return nil })
	res.set("rrset.prepare_cover_ms", ms(d), "ms", 1)
	res.set("rrset.family_mb", mb(fam.MemBytes()), "MB", 1)
	res.set("rrset.inverted_mb", mb(inv.MemBytes()), "MB", 1)

	var enc bytes.Buffer
	d, err := l.stage("rrset", "encode", func() error { return rrset.EncodeSetFamily(&enc, fam.View()) })
	if err != nil {
		return err
	}
	res.set("rrset.encode_mb_per_s", mb(int64(enc.Len()))/d.Seconds(), "MB/s", 1)
	d, err = l.stage("rrset", "decode", func() error {
		back, err := rrset.DecodeSetFamily(bytes.NewReader(enc.Bytes()), n)
		if err == nil && back.NumMembers() != fam.NumMembers() {
			err = fmt.Errorf("decoded %d members, encoded %d", back.NumMembers(), fam.NumMembers())
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("rrset.decode_mb_per_s", mb(int64(enc.Len()))/d.Seconds(), "MB/s", 1)

	sets := min(fam.Len(), bitmapCap*8/n)
	view := fam.Prefix(sets)
	sweepInv := rrset.BuildInverted(n, view, 0)
	sweepInv.PrepareCover()
	sweepInv.PrepareCoverBits()
	ws := rrset.NewWorkspace()
	sweep := func(id rrset.KernelID) func() error {
		return func() error {
			c := ws.Collection(n, view, sweepInv)
			if got := c.UseKernel(id); got != id {
				return fmt.Errorf("asked for the %v kernel, got %v", id, got)
			}
			covered := 0
			for u := 0; u < n; u++ {
				covered += c.CoverNode(int32(u))
			}
			if covered != c.NumCovered() || covered > sets {
				return fmt.Errorf("sweep covered %d sets, collection says %d of %d", covered, c.NumCovered(), sets)
			}
			return nil
		}
	}
	sparse := l.add("rrset", "sweep.sparse", sweep(rrset.KernelSparse))
	bitset := l.add("rrset", "sweep.bitset", sweep(rrset.KernelBitset))
	l.reports = append(l.reports, func() error {
		res.set("rrset.sweep_sparse_ms", sparse.median()*1e3, "ms", sparse.reps)
		res.set("rrset.sweep_bitset_ms", bitset.median()*1e3, "ms", bitset.reps)
		res.set("rrset.ads_on_bitset", float64(l.direct.KernelCounts[rrset.KernelBitset]), "count", 1)
		return nil
	})
	return nil
}

// phaseSum accumulates core's per-phase timings over the repetitions of a
// rung (the public Request.Observer hook).
type phaseSum struct {
	phase [core.NumAllocPhases]time.Duration
	runs  int
}

func (p *phaseSum) ObserveAllocation(t core.PhaseTimings) {
	for i, d := range t.Phase {
		p.phase[i] += d
	}
	p.runs++
}

// core builds the index, round-trips it through a snapshot, and puts the warm
// allocation, the 1-ad allocation, the batch of 8 and an ad arrival on the
// ladder.
func (l *ladder) core(context.Context) error {
	r, res := l.r, l.r.res
	inst := r.inst
	var idx *core.Index
	d, err := l.stage("core", "build_index", func() (err error) {
		idx, err = core.BuildIndex(inst, r.params.Seed, l.opts)
		return err
	})
	if err != nil {
		return err
	}
	res.set("core.build_index_s", d.Seconds(), "s", 1)
	res.set("core.sets_sampled", float64(idx.SetsSampled()), "count", 1)
	snapPath := filepath.Join(r.outDir, "core.adix")
	if d, err = l.stage("core", "snapshot_write", func() error {
		f, err := os.Create(snapPath)
		if err != nil {
			return err
		}
		err = idx.WriteSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}); err != nil {
		return err
	}
	res.set("core.snapshot_write_s", d.Seconds(), "s", 1)
	if d, err = l.stage("core", "snapshot_load", func() error {
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = core.LoadIndexSnapshot(inst, f)
		return err
	}); err != nil {
		return err
	}
	res.set("core.snapshot_load_s", d.Seconds(), "s", 1)
	os.Remove(snapPath)

	var pool core.WorkspacePool
	var phases phaseSum
	alloc := l.add("core", "alloc", func() (err error) {
		req := l.req
		req.Pool, req.Observer = &pool, &phases
		l.direct, err = core.AllocateFromIndex(idx, req)
		return err
	})
	l.coreAlloc = alloc
	oneAd := l.add("core", "alloc.1ad", func() error {
		req := l.req
		req.Pool, req.Ads = &pool, []int{0}
		_, err := core.AllocateFromIndex(idx, req)
		return err
	})
	const batch = 8
	batch8 := l.add("core", "batch8", func() error {
		reqs := make([]core.Request, batch)
		for i := range reqs {
			reqs[i] = l.req
			reqs[i].Pool = &pool
		}
		for i, br := range core.AllocateBatch(idx, reqs) {
			if br.Err != nil {
				return fmt.Errorf("item %d: %w", i, br.Err)
			}
		}
		return nil
	})
	var add, remove sample
	l.add("core", "add_remove", func() error {
		ad := inst.Ads[0]
		ad.Name = "late"
		t0 := time.Now()
		pos, err := idx.AddAd(ad, l.opts)
		if err != nil {
			return err
		}
		add.addDur(time.Since(t0))
		t0 = time.Now()
		err = idx.RemoveAd(pos)
		remove.addDur(time.Since(t0))
		return err
	})
	l.reports = append(l.reports, func() error {
		res.set("core.alloc_ms", alloc.median()*1e3, "ms", alloc.reps)
		for p := core.AllocPhase(0); p < core.NumAllocPhases; p++ {
			res.set("core.phase_"+p.String()+"_ms", ms(phases.phase[p])/float64(max(phases.runs, 1)), "ms", phases.runs)
		}
		res.set("core.rounds", float64(l.direct.Iterations), "count", 1)
		res.set("core.alloc_objs_per_op", alloc.objs, "count", alloc.reps)
		res.set("core.alloc_kb_per_op", alloc.kb, "kB", alloc.reps)
		hits, misses := pool.Stats()
		res.set("core.pool_hit_rate", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
		res.set("core.batch8_ms_per_req", batch8.median()*1e3/batch, "ms", batch8.reps)
		res.set("core.alloc_1ad_us", oneAd.median()*1e6, "us", oneAd.reps)
		res.set("core.add_ad_ms", add.median()*1e3, "ms", len(add))
		res.set("core.remove_ad_us", remove.median()*1e6, "us", len(remove))
		return nil
	})
	return nil
}

// sameAsDirect checks a higher rung's allocation against core's.
func (l *ladder) sameAsDirect(what string, got [][]int32) {
	if l.direct != nil {
		l.r.ck.verify(what+" identical to core.AllocateFromIndex", sameSeeds(nonNil(got), nonNil(l.direct.Alloc.Seeds)))
	}
}

func nonNil(seeds [][]int32) [][]int32 {
	out := make([][]int32, len(seeds))
	for i, s := range seeds {
		out[i] = s
		if s == nil {
			out[i] = []int32{}
		}
	}
	return out
}

// shard runs the second implementation of the greedy: a coordinator over
// in-process shards at K=1 and K=4, then over the production HTTP client
// stack against the same four shards behind loopback listeners.
func (l *ladder) shard(ctx context.Context) error {
	r, res := l.r, l.r.res
	local := func(shards []*shard.Shard) (*shard.Coordinator, error) {
		clients := make([]shard.Client, len(shards))
		for i, sh := range shards {
			clients[i] = &spanClient{in: shard.LocalClient{S: sh}, l: l, slot: i}
		}
		return shard.NewCoordinator(ctx, clients, shard.Config{Roster: r.inst, Logf: discardLog})
	}
	var coord1, coord4, coordHTTP *shard.Coordinator
	// Each cluster's first allocation draws its sample; that is set-up.
	if _, err := l.stage("shard", "cluster.k1", func() error {
		shards, err := openShards(r.params, 1, "")
		if err != nil {
			return err
		}
		if coord1, err = local(shards); err != nil {
			return err
		}
		_, err = coord1.Allocate(ctx, l.req)
		return err
	}); err != nil {
		return err
	}
	fabric := obs.NewRegistry()
	if _, err := l.stage("shard", "cluster.k4", func() (err error) {
		if l.back, err = startBackends(r.params, clusterK, "", l.middleware); err != nil {
			return err
		}
		l.closers = append(l.closers, l.back.close)
		if coord4, err = local(l.back.shards); err != nil {
			return err
		}
		if _, err = coord4.Allocate(ctx, l.req); err != nil {
			return err
		}
		// The production client stack, as serve.ConnectShards builds it, with
		// the span decorator outermost.
		fm := shard.NewMetrics(fabric, "bench")
		clients := make([]shard.Client, clusterK)
		for slot, addr := range l.back.addrs {
			cl := shard.InstrumentClient(shard.NewHTTPClient(addr), slot, fm)
			cl = shard.NewRetryClient(cl, shard.RetryPolicy{Seed: uint64(slot + 1), Label: fmt.Sprintf("%d/0", slot)}, fm)
			set, err := shard.NewReplicaSet(ctx, []shard.Client{cl}, shard.ReplicaSetConfig{Slot: slot, Metrics: fm, Logf: discardLog})
			if err != nil {
				return err
			}
			clients[slot] = &spanClient{in: set, l: l, slot: slot}
		}
		if coordHTTP, err = shard.NewCoordinator(ctx, clients, shard.Config{Roster: r.inst, Logf: discardLog, Metrics: fm}); err != nil {
			return err
		}
		_, err = coordHTTP.Allocate(ctx, l.req)
		return err
	}); err != nil {
		return err
	}
	allocate := func(what string, c *shard.Coordinator) func() error {
		return func() error {
			got, err := c.Allocate(ctx, l.req)
			if err == nil {
				l.sameAsDirect(what, got.Alloc.Seeds)
			}
			return err
		}
	}
	k1 := l.add("shard", "local.k1", allocate("coordinator over LocalClient K=1", coord1))
	k4 := l.add("shard", "local.k4", allocate("coordinator over LocalClient K=4", coord4))
	overHTTP := l.add("shard", "http.k4", allocate("coordinator over HTTP K=4", coordHTTP))
	l.shardHTTP = overHTTP
	var wireBytes int64 // of the traced calls; the middleware counts only those
	overHTTP.before = func() { l.wire.Store(0) }
	overHTTP.after = func() { wireBytes = l.wire.Load() }

	l.reports = append(l.reports, func() error {
		res.set("shard.local_k1_alloc_ms", k1.median()*1e3, "ms", k1.reps)
		res.set("shard.local_k1_objs_per_op", k1.objs, "count", k1.reps)
		res.set("shard.local_k4_alloc_ms", k4.median()*1e3, "ms", k4.reps)
		res.set("shard.http_k4_alloc_ms", overHTTP.median()*1e3, "ms", overHTTP.reps)
		st := rpcStats(l.recorder().snapshot(), overHTTP.spans)
		n, reps := overHTTP.reps, float64(overHTTP.reps)
		res.set("shard.rounds_per_alloc", float64(st.rounds)/reps, "count", n)
		res.set("shard.rpcs_per_alloc", float64(len(st.rpcDurs))/reps, "count", n)
		res.set("shard.rpc_p50_us", st.rpcDurs.median()*1e6, "us", len(st.rpcDurs))
		res.set("shard.rpc_p95_us", st.rpcDurs.quantile(0.95)*1e6, "us", len(st.rpcDurs))
		res.set("shard.wire_kb_per_alloc", float64(wireBytes)/reps/1e3, "kB", n)
		res.set("shard.rpc_wait_share", st.rpcUnion.Seconds()/st.allocTotal.Seconds(), "ratio", n)
		res.set("shard.coord_self_ms", ms(st.allocTotal-st.rpcUnion)/reps, "ms", n)
		res.set("shard.handler_self_ms", ms(st.handlerTotal)/reps, "ms", n)
		var exposition bytes.Buffer
		if err := fabric.Expose(&exposition); err != nil {
			return err
		}
		res.set("shard.retries", counterTotal(exposition.String(), "bench_shard_rpc_retries_total"), "count", 1)
		res.set("shard.failovers", counterTotal(exposition.String(), "bench_shard_failovers_total"), "count", 1)
		var largest int64
		for _, sh := range l.back.shards {
			largest = max(largest, sh.Info().MemBytes)
		}
		res.set("shard.index_mb_max", mb(largest), "MB", clusterK)
		return nil
	})
	return nil
}

// serveCall sends one request straight into a handler and fails on any
// status but 200.
func serveCall(h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(data)))
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("%s %s: HTTP %d: %s", method, path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return w, nil
}

// serve calls the service's handler directly, then through a real listener,
// then in coordinator mode over the ladder's shard daemons; the lifecycle
// endpoints ride along.
func (l *ladder) serve(ctx context.Context) error {
	r, res := l.r, l.r.res
	srv := serve.New(r.w.serveOptions())
	handler := srv.Handler()
	canon := r.canonical()
	oneAdReq := canon
	oneAdReq.Ads = []int{0}
	post := func(path string, body any) func() error {
		return func() error {
			_, err := serveCall(handler, http.MethodPost, path, body)
			return err
		}
	}
	if _, err := l.stage("serve", "cold_build", post("/allocate", canon)); err != nil {
		return err
	}
	spansTotal := func() float64 {
		reply, err := serveCall(handler, http.MethodGet, "/metrics", nil)
		if err != nil {
			return 0
		}
		return counterTotal(reply.Body.String(), "adserver_trace_spans_total")
	}
	var respBytes int
	var spansBefore, spansAfter float64
	direct := l.add("serve", "handler", func() error {
		reply, err := serveCall(handler, http.MethodPost, "/allocate", canon)
		if err != nil {
			return err
		}
		respBytes = reply.Body.Len()
		var out serve.AllocateResponse
		if err := json.Unmarshal(reply.Body.Bytes(), &out); err != nil {
			return err
		}
		l.sameAsDirect("served reply", out.Seeds)
		return nil
	})
	direct.before = func() { spansBefore = spansTotal() }
	direct.after = func() { spansAfter = spansTotal() }
	oneAd := l.add("serve", "handler.1ad", post("/allocate", oneAdReq))

	front := httptest.NewServer(handler)
	hc := newClient(front.URL, clientTimeout)
	l.closers = append(l.closers, hc.close, front.Close)
	overHTTP := l.add("serve", "http", func() error {
		r.tl.attempted.Add(1)
		_, _, _, err := hc.allocate(ctx, canon)
		if err != nil {
			r.tl.failed.Add(1)
		}
		return err
	})
	name := r.inst.Ads[0].Name
	spend := l.add("serve", "spend", post("/spend", serve.SpendRequest{
		InstanceParams: r.params, Spend: map[string]float64{name: r.tg.budgets[0] * 0.001}, Reset: true,
	}))
	feedback := l.add("serve", "feedback", post("/feedback", serve.FeedbackRequest{
		InstanceParams: r.params, Events: []bandit.Event{{Ad: name, Impressions: 100, Clicks: 7}},
	}))
	var add, remove sample
	addAd := post("/ads", serve.AddAdRequest{InstanceParams: r.params, Ad: serve.NewAdSpec{
		Name: "late", Budget: r.tg.budgets[0], CPE: 5.5, CTP: 0.02,
	}})
	l.add("serve", "add_remove", func() error {
		t0 := time.Now()
		if err := addAd(); err != nil {
			return err
		}
		add.addDur(time.Since(t0))
		t0 = time.Now()
		_, err := serveCall(handler, http.MethodDelete, removeAdPath(r.params, "late"), nil)
		remove.addDur(time.Since(t0))
		return err
	})

	var shardedHandler http.Handler
	if _, err := l.stage("serve", "connect_shards", func() error {
		sharded, err := connectFront(ctx, r.w, l.back.addrs)
		if err != nil {
			return err
		}
		l.closers = append(l.closers, sharded.Close)
		shardedHandler = sharded.Handler()
		return nil
	}); err != nil {
		return err
	}
	sharded := l.add("serve", "sharded.handler", func() error {
		_, err := serveCall(shardedHandler, http.MethodPost, "/allocate", canon)
		return err
	})

	l.reports = append(l.reports, func() error {
		res.set("serve.handler_ms", direct.median()*1e3, "ms", direct.reps)
		res.set("serve.overhead_us", (direct.median()-l.coreAlloc.median())*1e6, "us", direct.reps)
		res.set("serve.sharded_overhead_ms", (sharded.median()-l.shardHTTP.median())*1e3, "ms", sharded.reps)
		res.set("serve.handler_1ad_us", oneAd.median()*1e6, "us", oneAd.reps)
		res.set("serve.http_overhead_us", (overHTTP.median()-direct.median())*1e6, "us", overHTTP.reps)
		res.set("serve.objs_per_req", direct.objs, "count", direct.reps)
		res.set("serve.resp_kb", float64(respBytes)/1e3, "kB", 1)
		reply, err := serveCall(handler, http.MethodGet, "/stats", nil)
		if err != nil {
			return err
		}
		var stats serve.StatsResponse
		if err := json.Unmarshal(reply.Body.Bytes(), &stats); err != nil {
			return err
		}
		lookups := stats.CacheHits + stats.CacheMisses
		res.set("serve.cache_hit_rate", float64(stats.CacheHits)/float64(max(lookups, 1)), "ratio", int(lookups))
		res.set("serve.spend_us", spend.median()*1e6, "us", spend.reps)
		res.set("serve.feedback_us", feedback.median()*1e6, "us", feedback.reps)
		res.set("serve.add_ad_ms", add.median()*1e3, "ms", len(add))
		res.set("serve.remove_ad_us", remove.median()*1e6, "us", len(remove))
		// Untraced and traced calls both reach the server.
		res.set("obs.spans_per_alloc", (spansAfter-spansBefore)/float64(2*direct.reps), "count", 2*direct.reps)
		return nil
	})
	return nil
}

// obs times the HTTP middleware around a handler that does nothing.
func (l *ladder) obs(context.Context) error {
	const calls = 1000
	h := obs.Instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}),
		obs.NewHTTPMetrics(obs.NewRegistry(), "bench"),
		obs.InstrumentOptions{Component: "bench", Tracer: obs.NewTracer(obs.TracerConfig{})})
	g := l.add("obs", "middleware", func() error {
		for i := 0; i < calls; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/noop", nil))
		}
		return nil
	})
	l.reports = append(l.reports, func() error {
		l.r.res.set("obs.middleware_us", g.median()*1e6/calls, "us", g.reps*calls)
		return nil
	})
	return nil
}

// eval prices the quality check; it moves no end-to-end timing.
func (l *ladder) eval(context.Context) error {
	var score *eval.Outcome
	d, _ := l.stage("eval", "evaluate", func() error {
		score = eval.Evaluate(l.r.inst, l.direct.Alloc, evalRuns, xrand.New(evalSeed))
		return nil
	})
	l.r.res.set("eval.evaluate_s", d.Seconds(), "s", evalRuns)
	l.r.res.extra("regret_over_budget", score.RegretOverBudget, "ratio", evalRuns)
	return nil
}

// summary says where the traced run's time went — every instant booked to
// the layer of the deepest span active then, plus the remainder no span
// covers — and writes the spans out.
func (l *ladder) summary(rec *recorder) error {
	r, res := l.r, l.r.res
	byLayer, remainder, wall := layerTimes(rec.snapshot(), l.root)
	var sum time.Duration
	for layer, t := range byLayer {
		res.extra("self."+layer+"_s", t.Seconds(), "s", 1)
		sum += t
	}
	res.extra("self.unattributed_s", remainder.Seconds(), "s", 1)
	res.extra("traced_run.wall_s", wall.Seconds(), "s", 1)
	if sum+remainder != wall {
		r.ck.fail("layer self times %v + unattributed %v do not sum to the traced run's %v", sum, remainder, wall)
	}
	for _, g := range l.rungs {
		res.extra("rung."+g.layer+"."+g.name+"_ms", g.median()*1e3, "ms", g.reps)
	}
	if err := os.MkdirAll(r.outRoot, 0o755); err != nil {
		return err
	}
	return rec.writeJSON(filepath.Join(r.outRoot, r.w.name+".trace.json"))
}
