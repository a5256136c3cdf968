// Command adshard runs one shard of a partitioned allocation cluster: it
// generates the named dataset locally (instances never cross the wire),
// samples the whole deterministic RR stream of every ad its slot owns (the
// ads whose stream id is its slot mod -shards) and nothing of the others,
// and answers the coordinator's coverage/marginal-gain/commit RPCs over
// HTTP (see internal/shard: those run ops are binary, the lifecycle routes
// JSON) — or, on each connection a coordinator upgrades, as one frame per
// op. Point an adserver at the full cluster with -shards to serve
// distributed allocations. On SIGTERM the shard drains, writes its
// snapshot, and closes its upgraded connections between frames
// (Shard.Close) while HTTP requests finish.
//
// Usage (a 2-shard cluster plus coordinator):
//
//	adshard  -addr :9101 -dataset flixster -seed 1 -scale 0.02 -shard 0 -shards 2
//	adshard  -addr :9102 -dataset flixster -seed 1 -scale 0.02 -shard 1 -shards 2
//	adserver -addr :8080 -shards localhost:9101,localhost:9102
//
// Every shard of a cluster must be launched with identical dataset
// parameters and -shards K; the coordinator refuses mismatched clusters
// (instance fingerprints, K, and slot ids are all validated).
//
// With -snapshots set, the shard persists its slice in the index snapshot
// format (v8, which carries the partition manifest, the stream ids, the
// next stream id and the node count) and restarts warm; a snapshot taken for a different slot or
// instance, or by an older version, refuses to load and the shard
// rebuilds.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/rrset"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":9101", "listen address")
		dataset   = flag.String("dataset", "flixster", "dataset generator (see adserver /datasets)")
		seed      = flag.Uint64("seed", 1, "instance + stream seed (must match the whole cluster)")
		scale     = flag.Float64("scale", 0.02, "dataset scale")
		ads       = flag.Int("ads", 0, "advertiser count override (0 = dataset default)")
		shardID   = flag.Int("shard", 0, "this shard's slot in [0, shards)")
		numShards = flag.Int("shards", 1, "cluster size K")
		snapshots = flag.String("snapshots", "", "directory for shard snapshots (empty = in-memory only)")
		workers   = flag.Int("workers", 0, "cap on RR-sampling worker goroutines (0 = GOMAXPROCS)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, allocs, goroutine profiles; see EXPERIMENTS.md for a hot-path profiling walkthrough)")
		rpcTO     = flag.Duration("rpc-timeout", 0, "server-side bound on a single RPC handler (http.Server write timeout; 0 = unbounded — sampling-heavy ops can legitimately run long, coordinators bound their side with per-attempt deadlines)")
	)
	flag.Parse()
	rrset.SetMaxWorkers(*workers)
	if err := run(*addr, *dataset, *seed, *scale, *ads, *shardID, *numShards, *snapshots, *pprofOn, *rpcTO); err != nil {
		fmt.Fprintln(os.Stderr, "adshard:", err)
		os.Exit(1)
	}
}

func run(addr, dataset string, seed uint64, scale float64, ads, shardID, numShards int, snapshots string, pprofOn bool, rpcTimeout time.Duration) error {
	p, err := shard.NewPartitioner(numShards)
	if err != nil {
		return err
	}
	if shardID < 0 || shardID >= numShards {
		return fmt.Errorf("shard %d out of range [0, %d)", shardID, numShards)
	}
	part := p.Range(shardID)
	params := serve.InstanceParams{Dataset: dataset, Seed: seed, Scale: scale, NumAds: ads}
	log.Printf("adshard: generating %s (slice %d/%d)", params.Key(), shardID, numShards)
	roster, err := serve.BuildDataset(params)
	if err != nil {
		return err
	}

	var s *shard.Shard
	snapPath := ""
	if snapshots != "" {
		snapPath = filepath.Join(snapshots, fmt.Sprintf("%s-of-%d-%d.adix",
			serve.SnapshotName(params.Key()), numShards, shardID))
	}
	if snapPath != "" {
		if f, err := os.Open(snapPath); err == nil {
			idx, lerr := core.LoadShardIndexSnapshot(roster, part, f)
			f.Close()
			if lerr == nil {
				if s, lerr = shard.NewShardFromIndex(roster, idx); lerr == nil {
					log.Printf("adshard: loaded slice from %s (%.1f MB)", snapPath, float64(idx.MemBytes())/1e6)
				}
			}
			if lerr != nil {
				log.Printf("adshard: snapshot %s unusable (%v); rebuilding", snapPath, lerr)
				s = nil
			}
		}
	}
	if s == nil {
		if s, err = shard.NewShard(roster, 0, seed, part); err != nil {
			return err
		}
	}
	s.Dataset = shard.DatasetParams{Name: dataset, Seed: seed, Scale: scale, NumAds: ads}
	s.Logf = log.Printf

	log.Printf("adshard: serving slice %d/%d of %s", shardID, numShards, params.Key())
	return serve.RunDaemon(context.Background(), "adshard", addr, s.Handler(), pprofOn, rpcTimeout, func() {
		s.Drain()
		// Persist the slice; failures are logged, never fatal.
		if snapPath != "" {
			if err := s.Index().WriteSnapshotFile(snapPath); err != nil {
				log.Printf("adshard: snapshot %s: %v", snapPath, err)
			} else {
				log.Printf("adshard: wrote snapshot %s", snapPath)
			}
		}
	}, s.Close)
}
