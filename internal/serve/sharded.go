// Coordinator mode: adserver fronting a cluster of adshard daemons. With
// Options.Shards set, the server connects to every shard at startup
// (ConnectShards), rebuilds the cluster's instance locally from the
// parameters the shards self-report, and from then on resolves every
// request to the cluster engine below — distributed scatter-gather
// selection and lockstep mutation broadcasts (internal/shard) in place of
// a local index. The handlers are the single-node ones (campaign.go): the
// spend ledger and the estimator live on the serving host either way.
// /healthz and /stats additionally carry per-shard health.
//
// The request surface is unchanged — same bodies, same responses, and the
// returned allocations are byte-identical to single-node mode, because the
// distributed selection is (see internal/shard's golden tests). Requests
// must name the cluster's instance parameters; a coordinator serves
// exactly one instance (400 otherwise).

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// shardedState is the serve layer's coordinator-mode half: the one
// campaign the cluster serves and, as its engine, the cluster handle.
type shardedState struct {
	campaign
	addrs    []string // slot-major: addrs[slot*replicas+rep]
	replicas int
	// conns holds one transport per address, closed by Server.Close.
	conns   []*shard.HTTPClient
	sets    []*shard.ReplicaSet
	clients []shard.Client
	coord   *shard.Coordinator

	// memBytes caches the cluster's summed sample footprint, refreshed by
	// the health probes — /allocate reports it without sweeping shards.
	memBytes atomic.Int64
}

// ConnectShards dials every configured shard, validates the cluster (slot
// order, matching dataset parameters, instance fingerprints — see
// shard.NewCoordinator and shard.NewReplicaSet), rebuilds the instance
// locally, and switches the server into coordinator mode. With
// Options.Replicas = R > 1, the address list is read slot-major (R
// consecutive addresses per partition range) and each range is fronted by
// a failover ReplicaSet; a range only needs one reachable replica to
// connect. Every per-replica client is wrapped in the retry layer
// (Options.RPCTimeout), so transient RPC failures heal without surfacing.
// Call once at startup, before serving; Close releases the shard
// connections (and stops the prober, when Options.ProbeInterval started
// one). A failed connect closes what it opened.
func (s *Server) ConnectShards(ctx context.Context) (err error) {
	if len(s.opts.Shards) == 0 {
		return errors.New("serve: no shard addresses configured")
	}
	r := s.opts.Replicas
	if r <= 0 {
		r = 1
	}
	if len(s.opts.Shards)%r != 0 {
		return fmt.Errorf("serve: %d shard addresses do not divide into replica groups of %d", len(s.opts.Shards), r)
	}
	k := len(s.opts.Shards) / r
	st := &shardedState{addrs: s.opts.Shards, replicas: r}
	// All RPC telemetry rides the server's own registry so one /metrics
	// scrape covers the serving host and its view of the fabric. Guarded
	// for ConnectShards retries — families register once per server.
	if s.metrics.shard == nil {
		s.metrics.shard = shard.NewMetrics(s.metrics.reg, "adserver")
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.sets = make([]*shard.ReplicaSet, k)
	st.clients = make([]shard.Client, k)
	for slot := 0; slot < k; slot++ {
		reps := make([]shard.Client, r)
		for rep := 0; rep < r; rep++ {
			conn := shard.NewHTTPClient(st.addrs[slot*r+rep])
			st.conns = append(st.conns, conn)
			cl := shard.InstrumentClient(conn, slot, s.metrics.shard)
			reps[rep] = shard.NewRetryClient(cl, shard.RetryPolicy{
				Timeout: s.opts.RPCTimeout,
				Seed:    uint64(slot*r + rep + 1),
				Label:   fmt.Sprintf("%d/%d", slot, rep),
			}, s.metrics.shard)
		}
		set, err := shard.NewReplicaSet(ctx, reps, shard.ReplicaSetConfig{
			Slot:    slot,
			Metrics: s.metrics.shard,
			Logf:    s.opts.Logf,
		})
		if err != nil {
			return fmt.Errorf("serve: range %d (%v): %w", slot, st.addrs[slot*r:(slot+1)*r], err)
		}
		st.sets[slot] = set
		st.clients[slot] = set
	}
	var first shard.DatasetParams
	for slot, set := range st.sets {
		info, err := set.Info(ctx)
		if err != nil {
			return fmt.Errorf("serve: range %d unreachable: %w", slot, err)
		}
		if slot == 0 {
			first = info.Dataset
		} else if info.Dataset != first {
			return fmt.Errorf("serve: range %d serves %+v, range 0 serves %+v", slot, info.Dataset, first)
		}
	}
	st.params = InstanceParams{Dataset: first.Name, Seed: first.Seed, Scale: first.Scale, NumAds: first.NumAds}
	st.key = st.params.Key()
	roster, err := BuildDataset(st.params)
	if err != nil {
		return fmt.Errorf("serve: rebuilding cluster instance %s: %w", st.key, err)
	}
	coord, err := shard.NewCoordinator(ctx, st.clients, shard.Config{
		Roster:  roster,
		Logf:    s.opts.Logf,
		Metrics: s.metrics.shard,
	})
	if err != nil {
		return err
	}
	st.coord = coord
	s.sharded = st
	if _, degraded := st.shardHealth(ctx); len(degraded) > 0 {
		s.opts.Logf("serve: warning: cluster already degraded at connect time (ranges %v)", degraded)
	}
	s.startProber()
	s.opts.Logf("serve: coordinator mode over %d ranges × %d replicas, instance %s", k, r, st.key)
	return nil
}

// startProber launches the background replica prober when
// Options.ProbeInterval is set. shardHealth both reports and revives
// (through ReplicaSet.Probe), so the prober is just a periodic health
// sweep nobody has to request; /healthz remains an on-demand one.
func (s *Server) startProber() {
	if s.opts.ProbeInterval <= 0 || s.proberStop != nil {
		return
	}
	s.proberStop = make(chan struct{})
	s.proberDone = make(chan struct{})
	go func() {
		defer close(s.proberDone)
		t := time.NewTicker(s.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.proberStop:
				return
			case <-t.C:
				s.sharded.shardHealth(context.Background())
			}
		}
	}()
}

// Close stops the background prober, if any, closes the shard connections
// ConnectShards opened, and empties the cache, so a closed server holds no
// index and no connection however long the *Server itself stays reachable
// (a net/http connection goroutine can still be unwinding, with the handler
// on its stack, after the listener's own Close has returned). Safe to call
// repeatedly and on servers that never started a prober. It waits for the
// snapshot reads in flight (see entryFor), not for requests: one that races
// Close keeps the entry it resolved, and a later one builds, or loads from
// snapshot, afresh; a shard call that races it closes its connection when
// it ends.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.proberStop != nil {
			close(s.proberStop)
			<-s.proberDone
		}
		if s.sharded != nil {
			s.sharded.close()
		}
	})
	s.mu.Lock()
	clear(s.entries)
	s.mu.Unlock()
	s.reads.Wait()
}

// close closes every shard connection.
func (st *shardedState) close() {
	for _, c := range st.conns {
		c.Close()
	}
}

// EpochInst implements engine on the coordinator's campaign mirror.
func (st *shardedState) EpochInst() (uint64, *core.Instance) { return st.coord.EpochInst() }

// Allocate implements engine by distributed selection.
func (st *shardedState) Allocate(ctx context.Context, req core.Request) (*core.TIRMResult, error) {
	return st.coord.Allocate(ctx, req)
}

// AddAd implements engine: the spec broadcasts to every shard, each clones
// it as the host did, and the new ad is warmed cluster-wide.
func (st *shardedState) AddAd(ctx context.Context, spec core.AdSpec, _ core.Ad, opts core.TIRMOptions) (int, error) {
	return st.coord.AddAdSpec(ctx, spec, opts)
}

// RemoveAd implements engine by lockstep broadcast.
func (st *shardedState) RemoveAd(ctx context.Context, pos int) error {
	return st.coord.RemoveAd(ctx, pos)
}

// MemBytes implements engine with the health-probe-refreshed cluster sum,
// so the request path never sweeps shards itself.
func (st *shardedState) MemBytes() int64 { return st.memBytes.Load() }

// upstream implements engine: past request shaping, what fails is a shard.
func (st *shardedState) upstream() bool { return true }

// ShardHealth is one shard replica's health line in /healthz and /stats.
type ShardHealth struct {
	// Addr is the shard daemon's address.
	Addr string `json:"addr"`
	// Reachable reports whether the Info probe succeeded.
	Reachable bool `json:"reachable"`
	// Error carries the probe failure, if any.
	Error string `json:"error,omitempty"`
	// Shard is the partition slot.
	Shard int `json:"shard"`
	// Replica is the replica index within the slot (0 when unreplicated).
	Replica int `json:"replica,omitempty"`
	// Epoch is the shard's campaign epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// NumAds is the shard's campaign size.
	NumAds int `json:"numAds,omitempty"`
	// SetsSampled counts local RR-sets drawn over the shard's lifetime.
	SetsSampled int64 `json:"setsSampled,omitempty"`
	// MemBytes is the shard's stored-sample footprint.
	MemBytes int64 `json:"memBytes,omitempty"`
	// OpenRuns is the shard's live selection-run count.
	OpenRuns int `json:"openRuns,omitempty"`
	// Draining reports whether the shard refuses new runs.
	Draining bool `json:"draining,omitempty"`
}

// shardHealth probes every replica of every range with a bounded timeout
// (via ReplicaSet.Probe, so a probe doubles as a revive attempt for
// replicas that fell out of the rotation). degraded lists the partition
// ranges with no reachable replica at all — only those make the cluster
// unable to serve; a range with one dead replica out of R still reports
// healthy. When every range answers, the cached sample-footprint sum that
// /allocate reports is refreshed from one replica per range (so the
// request path never sweeps shards itself).
func (st *shardedState) shardHealth(ctx context.Context) (out []ShardHealth, degraded []int) {
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	out = make([]ShardHealth, 0, len(st.addrs))
	var mem int64
	for slot, set := range st.sets {
		up := false
		for rep, rs := range set.Probe(ctx) {
			h := ShardHealth{Addr: st.addrs[slot*st.replicas+rep], Shard: slot, Replica: rep}
			if rs.Err != nil {
				h.Error = rs.Err.Error()
			}
			if rs.Reachable {
				h.Reachable = true
				h.Epoch = rs.Info.Epoch
				h.NumAds = rs.Info.NumAds
				h.SetsSampled = rs.Info.SetsSampled
				h.MemBytes = rs.Info.MemBytes
				h.OpenRuns = rs.Info.OpenRuns
				h.Draining = rs.Info.Draining
				if !up {
					mem += rs.Info.MemBytes
				}
				up = true
			}
			out = append(out, h)
		}
		if !up {
			degraded = append(degraded, slot)
		}
	}
	if len(degraded) == 0 {
		st.memBytes.Store(mem)
	}
	return out, degraded
}

// ShardedStatsSection is the coordinator-mode block of GET /stats.
type ShardedStatsSection struct {
	// Key is the cluster's instance key.
	Key string `json:"key"`
	// NumShards is the cluster's K (partition ranges).
	NumShards int `json:"numShards"`
	// Replicas is R, the replication factor per range.
	Replicas int `json:"replicas"`
	// Epoch is the coordinator's campaign epoch.
	Epoch uint64 `json:"epoch"`
	// Allocations counts distributed selections served.
	Allocations int64 `json:"allocations"`
	// SpentTotal sums the host-side engagement ledger.
	SpentTotal float64 `json:"spentTotal"`
	// Shards carries per-shard health.
	Shards []ShardHealth `json:"shards"`
}

// shardedStats assembles the /stats section.
func (s *Server) shardedStats(ctx context.Context) *ShardedStatsSection {
	st := s.sharded
	health, _ := st.shardHealth(ctx)
	epoch, inst := st.coord.EpochInst()
	return &ShardedStatsSection{
		Key:         st.key,
		NumShards:   st.coord.NumShards(),
		Replicas:    st.replicas,
		Epoch:       epoch,
		Allocations: st.allocs.Load(),
		SpentTotal:  st.spentTotal(inst),
		Shards:      health,
	}
}
