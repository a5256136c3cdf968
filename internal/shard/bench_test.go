package shard

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// BenchmarkAllocateBatch measures batched warm allocation on a single node
// (core.AllocateBatch over one index) at batch sizes 1, 8, and 64. ns/op
// is per BATCH, so the per-request cost at B=64 against 64× the B=1
// number is what batching buys: shared epoch resolution and parallel
// fan-out. single/B=1 is the single-node reference the coordinator's
// BenchmarkShardedAllocate/K=1 is read against.
func BenchmarkAllocateBatch(b *testing.B) {
	inst := testInstance()
	opts := testOpts()
	sizes := []int{1, 8, 64}
	batch := func(n int) []core.Request {
		reqs := make([]core.Request, n)
		for i := range reqs {
			reqs[i] = core.Request{Opts: opts}
		}
		return reqs
	}

	b.Run("single", func(b *testing.B) {
		idx, err := core.BuildIndex(inst, 42, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("B=%d", n), func(b *testing.B) {
				reqs := batch(n)
				for _, r := range core.AllocateBatch(idx, reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.AllocateBatch(idx, reqs)
				}
			})
		}
	})
}

// benchWarmAllocate times warm allocations of the default request on coord.
func benchWarmAllocate(b *testing.B, coord *Coordinator) {
	ctx := context.Background()
	opts := testOpts()
	if err := coord.Warm(ctx, opts); err != nil {
		b.Fatal(err)
	}
	req := core.Request{Opts: opts}
	if _, err := coord.Allocate(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Allocate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedAllocate measures a warm distributed allocation over the
// in-process transport at K = 1, 2, 4, 8 — the scatter-gather overhead the
// coordinator adds on top of the single-node warm path (BenchmarkIndexColdVsWarm/warm
// is the K-free baseline). Shards are pre-warmed, so steady-state rounds
// draw no samples; the cost is candidate scanning over aggregate counters
// plus per-commit delta gathers.
func BenchmarkShardedAllocate(b *testing.B) {
	inst := testInstance()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			coord, _, err := NewLocalCluster(inst, 0, 42, k, Config{})
			if err != nil {
				b.Fatal(err)
			}
			benchWarmAllocate(b, coord)
		})
	}
}

// BenchmarkShardedAllocateStack is BenchmarkShardedAllocate/K=1 under the
// production client stack, ReplicaSet(RetryClient(InstrumentClient(·))) as
// serve.ConnectShards builds it, still over the in-process transport: its
// ns/op and allocs/op minus the bare K=1 row are what the decorators
// themselves cost an allocation (the HTTP benchmark below is all network).
func BenchmarkShardedAllocateStack(b *testing.B) {
	m := NewMetrics(obs.NewRegistry(), "bench")
	coord, _, _, err := NewReplicaCluster(testInstance(), 0, 42, 1, 1, Config{Metrics: m}, func(slot, rep int, cl Client) Client {
		return NewRetryClient(InstrumentClient(cl, slot, m), RetryPolicy{Seed: uint64(slot + rep + 1), Label: fmt.Sprintf("%d/%d", slot, rep)}, m)
	})
	if err != nil {
		b.Fatal(err)
	}
	benchWarmAllocate(b, coord)
}

// BenchmarkShardedAllocateHTTP is BenchmarkShardedAllocate at K = 1 and 4
// over the real transport: the coordinator speaks HTTPClient to httptest
// shards, which upgrade its connections to frames, so ns/op minus the
// in-process number is what the wire costs — codec, framing and loopback.
// rpcs/op and wireKB/op (request plus reply body bytes, counted per frame
// at the shards — the same bytes an HTTP request and reply carry) say how
// much wire that is; with every ad on one owner, K = 4 sends each per-ad
// round where K = 1 does, so the two rows differ by the run-wide rounds
// only.
func BenchmarkShardedAllocateHTTP(b *testing.B) {
	inst := testInstance()
	opts := testOpts()
	ctx := context.Background()
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var rpcs, wire atomic.Int64
			count := func(req, reply int) {
				rpcs.Add(1)
				wire.Add(int64(req + reply))
			}
			shards, clients := httpShards(b, 42, k, func(_ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					cw := &countingWriter{ResponseWriter: w}
					h.ServeHTTP(cw, r)
					if r.URL.Path != framesPath { // frames count themselves
						count(int(max(r.ContentLength, 0)), int(cw.n))
					}
				})
			}, nil)
			for _, s := range shards {
				s.frameHook = count
			}
			coord, err := NewCoordinator(ctx, clients, Config{Roster: inst})
			if err != nil {
				b.Fatal(err)
			}
			if err := coord.Warm(ctx, opts); err != nil {
				b.Fatal(err)
			}
			req := core.Request{Opts: opts}
			if _, err := coord.Allocate(ctx, req); err != nil {
				b.Fatal(err)
			}
			rpcs.Store(0)
			wire.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Allocate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rpcs.Load())/float64(b.N), "rpcs/op")
			b.ReportMetric(float64(wire.Load())/float64(b.N)/1e3, "wireKB/op")
		})
	}
}

// BenchmarkRPCPingPong is one RPC's round trip to one daemon, per envelope:
// a commit the shard answers from its replay cache, so the op itself costs
// next to nothing and ns/op is the transport's — an HTTP request and reply
// (the daemon behind hideHijack), or one frame each way.
func BenchmarkRPCPingPong(b *testing.B) {
	ctx := context.Background()
	for _, env := range []struct {
		name string
		wrap func(int, http.Handler) http.Handler
	}{{"http", hideHijack}, {"frame", nil}} {
		b.Run(env.name, func(b *testing.B) {
			_, clients := httpShards(b, 42, 1, env.wrap, nil)
			cl := clients[0]
			start, err := cl.Start(ctx, StartRequest{RunID: "run", Epoch: 1, Ads: []int{0}, Thetas: []int{3000}})
			if err != nil {
				b.Fatal(err)
			}
			commit := CommitRequest{RunID: "run", Ad: 0, Node: start.Cov[0].Nodes[0], Seq: 1}
			if _, err := cl.Commit(ctx, commit); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Commit(ctx, commit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingWriter counts the body bytes a handler writes. Its Unwrap lets
// the daemon reach the connection through it and upgrade.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Unwrap returns the wrapped writer (http.ResponseController).
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
