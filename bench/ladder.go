package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// The traced run climbs one ladder per workload: the workload's canonical
// request, single-threaded, at every layer it crosses in production —
//
//	kernel sweep → core.AllocateFromIndex → core.AllocateBatch (B=8)
//	→ Coordinator over LocalClient (K=1, K=4) → Coordinator over the HTTP
//	client stack (K=4) → Server.Handler().ServeHTTP → HTTP client
//
// all on one instance, so the cost each layer adds is a difference between
// two rungs rather than a guess across three different benchmarks. Around the
// ladder it times the build stages once (generate, sample, invert, encode,
// index, snapshot). Every call into a layer is wrapped in a span recorded by
// the benchmark itself; the program under test is not modified.

// ladder is the state of one traced run.
type ladder struct {
	r   *run
	rec atomic.Pointer[recorder] // nil during an untraced call
	// root is the span every stage and rung hangs from.
	root int
	// cur is the span in progress: the parent of the shard RPC spans the
	// coordinator issues on its behalf.
	cur atomic.Int64
	// rpc[slot] is the RPC span in flight to that shard, the parent of the
	// handler span the shard's middleware records.
	rpc []atomic.Int64
	// wire counts request and reply body bytes crossing the shard listeners.
	wire  atomic.Int64
	rungs []*rung
	// budget is the time a rung's repetitions may take.
	budget time.Duration

	// What the layers share: the canonical request in core's terms, the
	// allocation core gave for it (the reference every higher rung must
	// reproduce), and the K=4 shard daemons both shard and serve scatter to.
	opts   core.TIRMOptions
	req    core.Request
	direct *core.TIRMResult
	back   *backends
	// coreAlloc and shardHTTP are the rungs serve's own sit directly above.
	coreAlloc, shardHTTP *rung
	// reports run after the climb and turn rungs into metrics; closers
	// release what the layers started.
	reports []func() error
	closers []func()
}

// rung is one step of the ladder: a call repeated reps times.
type rung struct {
	layer, name string
	call        func() error
	// before and after run around the rung's repetitions.
	before, after func()
	reps          int
	// durs, objs and kb come from the untraced calls — seconds and heap
	// allocation per repetition with no span being recorded, so a rung that
	// records two spans per RPC compares fairly with one that records none.
	durs     sample
	objs, kb float64
	// spans are the traced calls, the roots of what the span arithmetic
	// reads.
	spans []int
}

const maxReps = 30

func (l *ladder) recorder() *recorder { return l.rec.Load() }

// stage times one build step as a span under the root.
func (l *ladder) stage(layer, name string, fn func() error) (time.Duration, error) {
	setOp("%s: traced %s.%s", l.r.w.name, layer, name)
	id := l.recorder().start(l.root, layer, name, 0)
	l.cur.Store(int64(id))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.recorder().end(id)
	if err != nil {
		return d, fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return d, nil
}

func (l *ladder) add(layer, name string, call func() error) *rung {
	g := &rung{layer: layer, name: name, call: call}
	l.rungs = append(l.rungs, g)
	return g
}

func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// climb runs every rung. A rung's repetitions alternate between an untraced
// call and a traced one, so both see the same caches, heap and machine
// weather and their totals price the tracing; a rung repeats while its budget
// lasts, at least once and at most maxReps times, so a 3 s paper-scale rung
// and a 200 µs one both finish in time. It returns the time spent in untraced and
// in traced calls.
func (l *ladder) climb(ctx context.Context, rec *recorder, parent int) (plain, traced time.Duration, err error) {
	for _, g := range l.rungs {
		setOp("%s: rung %s.%s", l.r.w.name, g.layer, g.name)
		if g.before != nil {
			g.before()
		}
		var objs, bytes uint64
		started := time.Now()
		for g.reps < maxReps && (g.reps == 0 || time.Since(started) < l.budget) {
			if ctx.Err() != nil {
				return 0, 0, ctx.Err()
			}
			// Untraced: no recorder for the decorators to find. The span
			// around it only books the time to the benchmark itself.
			l.rec.Store(nil)
			id := rec.start(parent, "bench", "untraced."+g.name, g.reps)
			objs0, bytes0 := heapAllocs()
			t0 := time.Now()
			err := g.call()
			d := time.Since(t0)
			objs1, bytes1 := heapAllocs()
			rec.end(id)
			l.rec.Store(rec)
			if err != nil {
				return 0, 0, fmt.Errorf("rung %s.%s: %w", g.layer, g.name, err)
			}
			g.durs.addDur(d)
			plain += d
			objs += objs1 - objs0
			bytes += bytes1 - bytes0

			id = rec.start(parent, g.layer, g.name, g.reps)
			l.cur.Store(int64(id))
			t0 = time.Now()
			err = g.call()
			traced += time.Since(t0)
			rec.end(id)
			if err != nil {
				return 0, 0, fmt.Errorf("rung %s.%s (traced): %w", g.layer, g.name, err)
			}
			g.spans = append(g.spans, id)
			g.reps++
		}
		g.objs = float64(objs) / float64(g.reps)
		g.kb = float64(bytes) / float64(g.reps) / 1e3
		if g.after != nil {
			g.after()
		}
	}
	return plain, traced, nil
}

// spanClient is the benchmark's shard.Client decorator: it records one span
// per RPC, as the child of the allocation in progress, and publishes the
// span so the receiving shard's middleware can hang its handler span from
// it. It sits outermost, where the coordinator calls, so an allocation's
// time minus the union of its RPC spans is the coordinator's own.
type spanClient struct {
	in   shard.Client
	l    *ladder
	slot int
}

func spanRPC[T any](c *spanClient, op string, call func() (T, error)) (T, error) {
	rec := c.l.recorder()
	if rec == nil {
		return call()
	}
	id := rec.start(int(c.l.cur.Load()), "shard", "rpc."+op, c.slot)
	c.l.rpc[c.slot].Store(int64(id))
	out, err := call()
	c.l.rpc[c.slot].Store(noSpan)
	rec.end(id)
	return out, err
}

func (c *spanClient) Info(ctx context.Context) (shard.ShardInfo, error) {
	return spanRPC(c, "info", func() (shard.ShardInfo, error) { return c.in.Info(ctx) })
}
func (c *spanClient) Pilot(ctx context.Context, req shard.PilotRequest) (shard.PilotReply, error) {
	return spanRPC(c, "pilot", func() (shard.PilotReply, error) { return c.in.Pilot(ctx, req) })
}
func (c *spanClient) Ensure(ctx context.Context, req shard.EnsureRequest) (shard.EnsureReply, error) {
	return spanRPC(c, "ensure", func() (shard.EnsureReply, error) { return c.in.Ensure(ctx, req) })
}
func (c *spanClient) Start(ctx context.Context, req shard.StartRequest) (shard.StartReply, error) {
	return spanRPC(c, "start", func() (shard.StartReply, error) { return c.in.Start(ctx, req) })
}
func (c *spanClient) Commit(ctx context.Context, req shard.CommitRequest) (shard.CommitReply, error) {
	return spanRPC(c, "commit", func() (shard.CommitReply, error) { return c.in.Commit(ctx, req) })
}
func (c *spanClient) Credit(ctx context.Context, req shard.CreditRequest) (shard.CommitReply, error) {
	return spanRPC(c, "credit", func() (shard.CommitReply, error) { return c.in.Credit(ctx, req) })
}
func (c *spanClient) Grow(ctx context.Context, req shard.GrowRequest) (shard.GrowReply, error) {
	return spanRPC(c, "grow", func() (shard.GrowReply, error) { return c.in.Grow(ctx, req) })
}
func (c *spanClient) Gains(ctx context.Context, req shard.GainsRequest) (shard.GainsReply, error) {
	return spanRPC(c, "gains", func() (shard.GainsReply, error) { return c.in.Gains(ctx, req) })
}
func (c *spanClient) End(ctx context.Context, runID string) error {
	_, err := spanRPC(c, "end", func() (struct{}, error) { return struct{}{}, c.in.End(ctx, runID) })
	return err
}
func (c *spanClient) AddAd(ctx context.Context, req shard.AddAdRequest) (shard.MutateReply, error) {
	return spanRPC(c, "addAd", func() (shard.MutateReply, error) { return c.in.AddAd(ctx, req) })
}
func (c *spanClient) RemoveAd(ctx context.Context, req shard.RemoveAdRequest) (shard.MutateReply, error) {
	return spanRPC(c, "removeAd", func() (shard.MutateReply, error) { return c.in.RemoveAd(ctx, req) })
}
func (c *spanClient) SyncEstimates(ctx context.Context, req shard.SyncEstimatesRequest) error {
	_, err := spanRPC(c, "syncEstimates", func() (struct{}, error) { return struct{}{}, c.in.SyncEstimates(ctx, req) })
	return err
}

// countingWriter counts reply body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware wraps a shard daemon's handler on its benchmark-owned listener:
// one span per request served — a true child of the RPC span that caused it
// — and the bytes that crossed the wire.
func (l *ladder) middleware(slot int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := l.recorder()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent := int(l.rpc[slot].Load())
		if parent == noSpan {
			// Requests from a coordinator the benchmark does not decorate
			// (the one inside serve) hang from the rung itself.
			parent = int(l.cur.Load())
		}
		id := rec.start(parent, "shard", "handler"+strings.TrimPrefix(r.URL.Path, "/shard"), slot)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		rec.end(id)
		l.wire.Add(max(r.ContentLength, 0) + cw.n)
	})
}

// counterTotal sums every sample of a counter family in a Prometheus text
// exposition.
func counterTotal(exposition, family string) float64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// rpcSummary is what the spans of the coordinator-over-HTTP rung say about
// where an allocation's time goes.
type rpcSummary struct {
	allocTotal   time.Duration // Σ allocation spans
	rpcUnion     time.Duration // Σ per-allocation union of RPC spans
	handlerTotal time.Duration // Σ shard handler spans
	rpcDurs      sample
	rounds       int // scatter-gather rounds: groups of overlapping RPC spans
}

func rpcStats(spans []span, allocs []int) rpcSummary {
	var st rpcSummary
	isAlloc := map[int]bool{}
	for _, id := range allocs {
		if id != noSpan {
			isAlloc[id] = true
			st.allocTotal += spans[id].dur()
		}
	}
	rpcOf := map[int][]interval{}
	isRPC := map[int]bool{}
	for _, s := range spans {
		if isAlloc[s.Parent] && strings.HasPrefix(s.Name, "rpc.") {
			isRPC[s.ID] = true
			rpcOf[s.Parent] = append(rpcOf[s.Parent], interval{s.Start, s.End})
			st.rpcDurs.addDur(s.dur())
		}
	}
	for _, s := range spans {
		if isRPC[s.Parent] {
			st.handlerTotal += s.dur()
		}
	}
	for _, ivs := range rpcOf {
		st.rpcUnion += unionLen(ivs)
		st.rounds += waves(ivs)
	}
	return st
}
