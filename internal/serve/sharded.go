// Coordinator mode: adserver fronting a cluster of adshard daemons. With
// Options.Shards set, the server connects to every shard at startup
// (ConnectShards), rebuilds the cluster's instance locally from the
// parameters the shards self-report, and serves /allocate by distributed
// scatter-gather selection (internal/shard) instead of a local index.
// Campaign mutations broadcast through the coordinator, the spend ledger
// lives on the serving host exactly as in single-node mode, and /healthz
// and /stats carry per-shard health.
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
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/shard"
)

// shardedState is the serve layer's coordinator-mode half: the cluster
// handle, the instance mirror's cache key, and the host-side spend ledger.
type shardedState struct {
	addrs    []string // slot-major: addrs[slot*replicas+rep]
	replicas int
	sets     []*shard.ReplicaSet
	clients  []shard.Client
	coord    *shard.Coordinator
	params   InstanceParams

	// lifeMu serializes campaign mutations (name lookups + the cluster
	// broadcast); the ledger mutex below must never be held across a
	// broadcast — a slow shard would otherwise stall every /spend and
	// residual /allocate behind it.
	lifeMu sync.Mutex

	mu     sync.Mutex // guards spent and allocs only (never held across RPCs)
	spent  map[string]float64
	allocs int64

	// estMu guards the host-side bandit estimator (nil until the first
	// POST /feedback); its integer snapshot broadcasts to every shard
	// after each batch, outside this lock.
	estMu sync.Mutex
	est   bandit.Estimator

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
// (Options.RPCTimeout), so transient RPC failures — including estimator
// syncs from /feedback — heal without surfacing. Call once at startup,
// before serving; pair with Close when Options.ProbeInterval is set.
func (s *Server) ConnectShards(ctx context.Context) error {
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
	st := &shardedState{addrs: s.opts.Shards, replicas: r, spent: map[string]float64{}}
	// All RPC telemetry rides the server's own registry so one /metrics
	// scrape covers the serving host and its view of the fabric. Guarded
	// for ConnectShards retries — families register once per server.
	if s.metrics.shard == nil {
		s.metrics.shard = shard.NewMetrics(s.metrics.reg, "adserver")
	}
	st.sets = make([]*shard.ReplicaSet, k)
	st.clients = make([]shard.Client, k)
	for slot := 0; slot < k; slot++ {
		reps := make([]shard.Client, r)
		for rep := 0; rep < r; rep++ {
			addr := st.addrs[slot*r+rep]
			cl := shard.InstrumentClient(shard.NewHTTPClient(addr), slot, s.metrics.shard)
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
	roster, err := BuildDataset(st.params)
	if err != nil {
		return fmt.Errorf("serve: rebuilding cluster instance %s: %w", st.params.Key(), err)
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
	s.opts.Logf("serve: coordinator mode over %d ranges × %d replicas, instance %s", k, r, st.params.Key())
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

// Close stops the background prober, if any. Safe to call repeatedly and
// on servers that never started one.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.proberStop != nil {
			close(s.proberStop)
			<-s.proberDone
		}
	})
}

// checkShardedParams rejects requests for any instance other than the
// cluster's.
func (s *Server) checkShardedParams(w http.ResponseWriter, p InstanceParams) bool {
	if p.Key() != s.sharded.params.Key() {
		httpError(w, http.StatusBadRequest,
			"coordinator serves only %s (cluster instance); got %s", s.sharded.params.Key(), p.Key())
		return false
	}
	return true
}

// spendVector materializes the coordinator-mode ledger positionally.
func (st *shardedState) spendVector(inst *core.Instance) []float64 {
	out := make([]float64, len(inst.Ads))
	st.mu.Lock()
	defer st.mu.Unlock()
	for j, ad := range inst.Ads {
		out[j] = st.spent[ad.Name]
	}
	return out
}

// handleAllocateSharded is /allocate in coordinator mode: the same request
// and response shapes, served by distributed selection.
func (s *Server) handleAllocateSharded(w http.ResponseWriter, r *http.Request, req AllocateRequest) {
	if !s.checkShardedParams(w, req.InstanceParams) {
		return
	}
	st := s.sharded
	epoch, curInst := st.coord.EpochInst()
	reqCPEs := req.CPEs
	if req.Bandit {
		if req.CPEs != nil {
			s.metrics.failAlloc(failBadRequest)
			httpError(w, http.StatusBadRequest, "bandit and cpes are mutually exclusive")
			return
		}
		cpes, err := st.banditCPEs(curInst)
		if err != nil {
			s.metrics.failAlloc(failBadRequest)
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		reqCPEs = cpes
	}
	coreReq := core.Request{
		Opts:    req.Opts.toOptions(s.opts.MaxTheta),
		Ads:     req.Ads,
		Budgets: req.Budgets,
		CPEs:    reqCPEs,
		Lambda:  req.Lambda,
		Epoch:   epoch,
		Kernel:  s.kernelFor(req.Kernel),
	}
	if req.Kappa > 0 {
		coreReq.Kappa = core.ConstKappa(req.Kappa)
	}
	if req.Residual {
		coreReq.SpentBudget = st.spendVector(curInst)
	}
	actx, observer, explain, allocSpan := s.allocObserverFor(r.Context(), req.Explain)
	coreReq.Observer = observer
	coreReq.Explain = explain
	started := time.Now()
	res, err := st.coord.Allocate(actx, coreReq)
	allocSpan.EndErr(err)
	if err != nil {
		if errors.Is(err, core.ErrStaleEpoch) {
			s.metrics.failAlloc(failStaleEpoch)
			httpError(w, http.StatusConflict, "campaign set changed mid-request, retry: %v", err)
			return
		}
		if errors.Is(err, shard.ErrPartitionUnavailable) {
			s.metrics.failAlloc(failUnavailable)
			httpError(w, http.StatusServiceUnavailable, "cluster degraded: %v", err)
			return
		}
		s.metrics.failAlloc(failUpstream)
		httpError(w, http.StatusBadGateway, "sharded allocation: %v", err)
		return
	}
	s.metrics.allocations.Inc()
	s.metrics.allocSeconds.Observe(time.Since(started).Seconds())
	s.metrics.recordKernels(res.KernelCounts)
	st.mu.Lock()
	st.allocs++
	st.mu.Unlock()
	for i, seeds := range res.Alloc.Seeds {
		if seeds == nil {
			res.Alloc.Seeds[i] = []int32{}
		}
	}
	inst := instWith(curInst, req.Lambda, req.Kappa)
	names := make([]string, len(inst.Ads))
	for i, ad := range inst.Ads {
		names[i] = ad.Name
	}
	writeJSON(w, http.StatusOK, AllocateResponse{
		Key:           st.params.Key(),
		Epoch:         epoch,
		AllocSeconds:  time.Since(started).Seconds(),
		Seeds:         res.Alloc.Seeds,
		EstRevenue:    res.EstRevenue,
		EstRegret:     core.RegretOver(inst, req.Ads, req.Budgets, coreReq.SpentBudget, res.EstRevenue, res.Alloc.Seeds),
		FinalTheta:    res.FinalTheta,
		Iterations:    res.Iterations,
		SetsSampled:   res.TotalSetsSampled,
		SetsReused:    res.SetsReused,
		IndexMemBytes: st.memBytes.Load(),
		AdNames:       names,
		SpentBudgets:  coreReq.SpentBudget,
	})
}

// handleAddAdSharded is POST /ads in coordinator mode: the template clone
// broadcasts to every shard and the new ad is warmed cluster-wide.
func (s *Server) handleAddAdSharded(w http.ResponseWriter, r *http.Request, req AddAdRequest) {
	if !s.checkShardedParams(w, req.InstanceParams) {
		return
	}
	st := s.sharded
	st.lifeMu.Lock()
	defer st.lifeMu.Unlock()
	if len(st.coord.Inst().Ads) >= s.opts.MaxAds {
		httpError(w, http.StatusBadRequest, "campaign set already at server limit of %d ads", s.opts.MaxAds)
		return
	}
	spec := shard.AdSpec{
		Name:     req.Ad.Name,
		Budget:   req.Ad.Budget,
		CPE:      req.Ad.CPE,
		CTP:      req.Ad.CTP,
		Template: req.Ad.Template,
	}
	pos, err := st.coord.AddAdSpec(r.Context(), spec, core.TIRMOptions{MaxTheta: s.opts.MaxTheta})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.adsAdded.Add(1)
	epoch, inst := st.coord.EpochInst()
	names := make([]string, len(inst.Ads))
	for i, ad := range inst.Ads {
		names[i] = ad.Name
	}
	writeJSON(w, http.StatusOK, LifecycleResponse{
		Key: st.params.Key(), Epoch: epoch, NumAds: len(names), Position: pos, AdNames: names,
	})
}

// handleRemoveAdSharded is DELETE /ads/{name} in coordinator mode. The
// lifecycle mutex (not the ledger mutex) spans the lookup + broadcast, so
// a slow shard stalls only other mutations, never /spend or residual
// allocations.
func (s *Server) handleRemoveAdSharded(w http.ResponseWriter, r *http.Request, p InstanceParams, name string) {
	if !s.checkShardedParams(w, p) {
		return
	}
	st := s.sharded
	st.lifeMu.Lock()
	defer st.lifeMu.Unlock()
	inst := st.coord.Inst()
	pos := -1
	for j, ad := range inst.Ads {
		if ad.Name == name {
			pos = j
			break
		}
	}
	if pos < 0 {
		httpError(w, http.StatusNotFound, "no ad %q in campaign %s", name, st.params.Key())
		return
	}
	if err := st.coord.RemoveAd(r.Context(), pos); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st.mu.Lock()
	delete(st.spent, name)
	st.mu.Unlock()
	s.adsRemoved.Add(1)
	s.metrics.dropBanditEstimate(name)
	epoch, cur := st.coord.EpochInst()
	names := make([]string, len(cur.Ads))
	for i, ad := range cur.Ads {
		names[i] = ad.Name
	}
	writeJSON(w, http.StatusOK, LifecycleResponse{
		Key: st.params.Key(), Epoch: epoch, NumAds: len(names), AdNames: names,
	})
}

// handleSpendSharded is POST /spend in coordinator mode: the ledger lives
// on the serving host, keyed by ad name against the coordinator's mirror.
// The lifecycle mutex keeps the name check atomic against a concurrent
// DELETE (which would otherwise leave an orphan ledger entry for a future
// ad reusing the name); the ledger mutex is taken only around the writes.
func (s *Server) handleSpendSharded(w http.ResponseWriter, r *http.Request, req SpendRequest) {
	if !s.checkShardedParams(w, req.InstanceParams) {
		return
	}
	st := s.sharded
	st.lifeMu.Lock()
	defer st.lifeMu.Unlock()
	inst := st.coord.Inst()
	byName := make(map[string]bool, len(inst.Ads))
	for _, ad := range inst.Ads {
		byName[ad.Name] = true
	}
	for name, amount := range req.Spend {
		if !byName[name] {
			httpError(w, http.StatusNotFound, "no ad %q in campaign %s", name, st.params.Key())
			return
		}
		if amount < 0 {
			httpError(w, http.StatusBadRequest, "spend %g for ad %q must be ≥ 0", amount, name)
			return
		}
	}
	resp := SpendResponse{Key: st.params.Key(), Epoch: st.coord.Epoch(), Ads: make([]AdBudgetStatus, len(inst.Ads))}
	st.mu.Lock()
	if req.Reset {
		st.spent = map[string]float64{}
	}
	for name, amount := range req.Spend {
		if amount > 0 {
			st.spent[name] += amount
		}
	}
	for i, ad := range inst.Ads {
		spent := st.spent[ad.Name]
		resp.Ads[i] = AdBudgetStatus{
			Name:     ad.Name,
			Budget:   ad.Budget,
			Spent:    spent,
			Residual: math.Max(ad.Budget-spent, 0),
			Depleted: spent >= ad.Budget,
		}
	}
	st.mu.Unlock()
	s.spendUpdates.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

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
	st.mu.Lock()
	var spent float64
	for _, v := range st.spent {
		spent += v
	}
	allocs := st.allocs
	st.mu.Unlock()
	return &ShardedStatsSection{
		Key:         st.params.Key(),
		NumShards:   st.coord.NumShards(),
		Replicas:    st.replicas,
		Epoch:       st.coord.Epoch(),
		Allocations: allocs,
		SpentTotal:  spent,
		Shards:      health,
	}
}
