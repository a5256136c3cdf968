// Command adserver runs the allocation service: an HTTP/JSON server that
// keeps per-dataset RR-set indexes hot in memory (and optionally on disk)
// so that repeated allocations — new budgets, new λ/κ, what-if ad subsets —
// pay only the cheap greedy selection instead of re-sampling. Campaigns
// are live: advertisers can join and leave a cached index, and recorded
// engagement spend lets re-allocations target residual budgets.
//
// Usage:
//
//	adserver -addr :8080 -snapshots ./snapshots \
//	         -preload flixster:1:0.02,dblp:1:0.02:5
//
// Endpoints (see internal/serve and docs/API.md):
//
//	POST   /allocate    {"dataset":"flixster","seed":1,"scale":0.02,
//	                     "lambda":0.5,"opts":{"eps":0.3,"minTheta":5000}}
//	POST   /evaluate    {"dataset":"flixster","seed":1,"scale":0.02,
//	                     "seeds":[[3,17],[],...],"runs":2000}
//	POST   /ads         {"dataset":"flixster","seed":1,"scale":0.02,
//	                     "ad":{"name":"promo","budget":25,"cpe":5,
//	                           "ctp":0.02,"template":0}}
//	DELETE /ads/promo?dataset=flixster&seed=1&scale=0.02
//	POST   /spend       {"dataset":"flixster","seed":1,"scale":0.02,
//	                     "spend":{"ad00":12.5}}
//	GET    /datasets, /stats, /healthz, /metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/rrset"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		snapshots = flag.String("snapshots", "", "directory for index snapshots (empty = in-memory only)")
		preload   = flag.String("preload", "", "comma-separated dataset:seed:scale[:ads] indexes to build at startup")
		maxScale  = flag.Float64("maxscale", serve.DefaultMaxScale, "largest dataset scale a request may ask for")
		maxTheta  = flag.Int("maxtheta", serve.DefaultMaxTheta, "server-side cap on per-ad RR sample size")
		workers   = flag.Int("workers", 0, "cap on RR-sampling worker goroutines (0 = GOMAXPROCS); pin it so index builds don't saturate every core of a serving host")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, allocs, goroutine profiles; see EXPERIMENTS.md for a hot-path profiling walkthrough)")
		shards    = flag.String("shards", "", "comma-separated adshard addresses (host:port, slot-major: with -replicas R, each slot's R replicas are consecutive): serve /allocate by distributed scatter-gather over this cluster instead of a local index")
		replicas  = flag.Int("replicas", 1, "replication factor R in coordinator mode: every partition range is served by R adshard replicas with automatic failover")
		rpcTO     = flag.Duration("rpc-timeout", 30*time.Second, "per-attempt deadline for fast shard RPCs in coordinator mode (sampling-heavy ops get 10x)")
		probeIvl  = flag.Duration("probe-interval", 15*time.Second, "background replica health probe period in coordinator mode (0 = probe only on /healthz)")
	)
	flag.Parse()
	rrset.SetMaxWorkers(*workers)
	opts := serve.Options{
		SnapshotDir:   *snapshots,
		MaxScale:      *maxScale,
		MaxTheta:      *maxTheta,
		Replicas:      *replicas,
		RPCTimeout:    *rpcTO,
		ProbeInterval: *probeIvl,
	}
	if err := run(*addr, *preload, *pprofOn, *shards, opts); err != nil {
		fmt.Fprintln(os.Stderr, "adserver:", err)
		os.Exit(1)
	}
}

func run(addr, preload string, pprofOn bool, shards string, opts serve.Options) error {
	if shards != "" {
		for _, a := range strings.Split(shards, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Shards = append(opts.Shards, a)
			}
		}
	}
	srv := serve.New(opts)
	if len(opts.Shards) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := srv.ConnectShards(ctx)
		cancel()
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	if preload != "" {
		for _, spec := range strings.Split(preload, ",") {
			p, err := serve.WarmSpec(strings.TrimSpace(spec))
			if err != nil {
				return err
			}
			log.Printf("adserver: preloading %s", p.Key())
			if err := srv.Warm(p); err != nil {
				return fmt.Errorf("preload %s: %w", p.Key(), err)
			}
		}
	}

	return serve.RunDaemon(context.Background(), "adserver", addr, srv.Handler(), pprofOn, 0, nil, nil)
}
