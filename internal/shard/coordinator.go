package shard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rrset"
)

// Config shapes a Coordinator.
type Config struct {
	// Roster is the full generated instance the cluster was built from;
	// campaign arrivals activate its positions. Required.
	Roster *core.Instance
	// InitialAds is how many roster positions are live at cluster start
	// (0 = all). It must match how the shards were built; NewLocalCluster
	// wires both sides.
	InitialAds int
	// Verify turns on the per-round cross-check: every frontier's
	// marginal gains are scatter-gathered from all shards and compared
	// against the coordinator's aggregate counters, so shard drift (a
	// mis-sampled block, a lost commit) fails the run instead of skewing
	// the allocation. Costs one extra RPC round-trip per ad per
	// iteration — on by default in tests, off in serving.
	Verify bool
	// Logf receives operational messages (default log.Printf).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives scatter-gather round timings (the
	// per-RPC metrics come from wrapping clients with InstrumentClient —
	// usually against the same Metrics).
	Metrics *Metrics
}

// Coordinator fronts a cluster of K shards: it runs core's selection loop
// — candidate ranking, regret drops, attention bounds, seed-target
// estimation, every float — over coverage it gathers from the shards,
// which own the RR sets and answer integer coverage RPCs (see
// clusterBackend). Allocations are byte-identical to
// core.AllocateFromIndex over a single-node index at any K (see package
// comment); campaign mutations broadcast to every shard in lockstep.
//
// Safe for concurrent use: allocations run under distinct run ids, and
// mutations serialize against them only at the epoch snapshot.
type Coordinator struct {
	clients []Client
	part    Partitioner
	verify  bool
	roster  *core.Instance
	logf    func(format string, args ...any)
	metrics *Metrics
	id      string
	runSeq  atomic.Uint64

	mu    sync.RWMutex // guards inst/epoch (mutations swap them)
	inst  *core.Instance
	epoch uint64

	// Pilot-width cache: an ad's merged global pilot widths are immutable
	// for a given (epoch, ad position, pilot size), and every allocation
	// needs them — and KPT over them — so steady traffic should neither
	// re-ship MinTheta int64s per ad per request nor recompute KPT. Cleared
	// wholesale when the epoch moves.
	widthMu    sync.Mutex
	widthEpoch uint64
	widthCache map[widthKey]*cachedPilot
}

// cachedPilot is one entry of the width cache: a merged pilot and the KPT
// values sized from it.
type cachedPilot struct {
	widths []int64
	kpt    core.KPTCache
}

// widthKey identifies one cached merged pilot within an epoch.
type widthKey struct {
	ad   int
	want int
}

// NewCoordinator validates a cluster and fronts it: every client must
// report the same K, seed, roster fingerprint, epoch, and campaign size,
// and client i must hold partition slot i. The coordinator's campaign
// mirror starts as the roster prefix the shards report; a cluster whose
// live campaign has diverged from that prefix (in-memory mutations
// survive on running shards across a coordinator restart) is refused via
// the campaign fingerprint rather than silently mis-priced. ctx bounds
// the validation probes.
func NewCoordinator(ctx context.Context, clients []Client, cfg Config) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, errors.New("shard: coordinator needs at least one shard")
	}
	if cfg.Roster == nil {
		return nil, errors.New("shard: coordinator needs the cluster's roster instance")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	part, err := NewPartitioner(len(clients))
	if err != nil {
		return nil, err
	}
	fp := core.InstanceFingerprint(cfg.Roster)
	var first ShardInfo
	for i, cl := range clients {
		info, err := cl.Info(ctx)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d unreachable: %w", i, err)
		}
		if info.NumShards != len(clients) || info.Shard != i {
			return nil, fmt.Errorf("shard: client %d reports slice %d/%d, cluster has %d shards",
				i, info.Shard, info.NumShards, len(clients))
		}
		if info.Fingerprint != fp {
			return nil, fmt.Errorf("shard: shard %d fingerprint %#x does not match roster %#x", i, info.Fingerprint, fp)
		}
		if i == 0 {
			first = info
			continue
		}
		if info.Seed != first.Seed || info.Epoch != first.Epoch || info.NumAds != first.NumAds ||
			info.CampaignFingerprint != first.CampaignFingerprint {
			return nil, fmt.Errorf("shard: shard %d state (seed %d, epoch %d, %d ads) diverges from shard 0 (seed %d, epoch %d, %d ads)",
				i, info.Seed, info.Epoch, info.NumAds, first.Seed, first.Epoch, first.NumAds)
		}
	}
	if first.NumAds > len(cfg.Roster.Ads) {
		return nil, fmt.Errorf("shard: cluster campaign has %d ads, roster only %d", first.NumAds, len(cfg.Roster.Ads))
	}
	inst := *cfg.Roster
	inst.Ads = append([]core.Ad(nil), cfg.Roster.Ads[:first.NumAds]...)
	if got := campaignFingerprint(&inst); got != first.CampaignFingerprint {
		return nil, fmt.Errorf("shard: cluster campaign (fingerprint %#x) is not the roster prefix this coordinator would mirror (%#x) — in-memory mutations survived on the shards; restart them (snapshots restore the as-built campaign) or the whole cluster",
			first.CampaignFingerprint, got)
	}
	return &Coordinator{
		clients:    clients,
		part:       part,
		verify:     cfg.Verify,
		roster:     cfg.Roster,
		logf:       cfg.Logf,
		metrics:    cfg.Metrics,
		id:         fmt.Sprintf("run-%x", time.Now().UnixNano()),
		inst:       &inst,
		epoch:      first.Epoch,
		widthEpoch: first.Epoch,
		widthCache: map[widthKey]*cachedPilot{},
	}, nil
}

// NumShards returns the cluster's K.
func (c *Coordinator) NumShards() int { return c.part.NumShards() }

// Inst returns the coordinator's current campaign instance (a stable
// snapshot; mutations swap in a fresh one).
func (c *Coordinator) Inst() *core.Instance {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inst
}

// Epoch returns the cluster's current campaign epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// EpochInst returns the current epoch and its instance as one consistent
// pair.
func (c *Coordinator) EpochInst() (uint64, *core.Instance) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch, c.inst
}

// SetsSampled sums the shards' lifetime sample counts (the distributed
// equivalent of Index.SetsSampled).
func (c *Coordinator) SetsSampled(ctx context.Context) (int64, error) {
	infos := make([]ShardInfo, len(c.clients))
	if err := gather(ctx, c, opInfo, nil, infos); err != nil {
		return 0, fmt.Errorf("shard: shard unreachable: %w", err)
	}
	var total int64
	for _, info := range infos {
		total += info.SetsSampled
	}
	return total, nil
}

// roundSpans holds each op's "round.<name>" span name, built once.
var roundSpans = func() (names [numOps]string) {
	for o, row := range opTable {
		names[o] = "round." + row.name
	}
	return names
}()

// gather sends op o with req to every shard through call and leaves shard
// k's reply in replies[k]; nil replies discards them. Callers fold the
// replies in shard order, which keeps every aggregate's evolution
// canonical. req is this round's own object and is not written after the
// call: a ReplicaSet logs the pointer to replay it.
//
// A run op — one whose request is a wireMessage, the test that also picks
// its binary codec — is one round of the greedy loop: a "round.<op>" span
// parents its RPCs, and with metrics on, its wall time lands in
// coordinator_round_seconds{phase=<op>}. The other ops (info, ensure, end,
// syncEstimates) are lifecycle traffic — once per probe, mutation, run or
// feedback batch — and are not rounds.
func gather[Reply any](ctx context.Context, c *Coordinator, o op, req any, replies []Reply) error {
	if _, round := req.(wireMessage); !round {
		return scatter(ctx, c.clients, o, req, replies)
	}
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	rctx, span := obs.StartSpan(ctx, roundSpans[o])
	err := scatter(rctx, c.clients, o, req, replies)
	if c.metrics != nil {
		c.metrics.roundSeconds.With(o.String()).Observe(time.Since(start).Seconds())
	}
	span.End()
	return err
}

// scatter is gather's fan-out: every shard's call runs concurrently — the
// last one on the caller's own goroutine, so K = 1 spawns none and
// allocates nothing — and it waits for all of them before returning the
// first error in shard order.
func scatter[Reply any](ctx context.Context, clients []Client, o op, req any, replies []Reply) error {
	last := len(clients) - 1
	if last == 0 {
		return call(ctx, clients[0], o, req, replyAt(replies, 0))
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	wg.Add(last)
	for k := range last {
		go func() {
			defer wg.Done()
			errs[k] = call(ctx, clients[k], o, req, replyAt(replies, k))
		}()
	}
	errs[last] = call(ctx, clients[last], o, req, replyAt(replies, last))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replyAt is where shard k's reply goes: replies[k], or nowhere when
// replies is nil.
func replyAt[Reply any](replies []Reply, k int) any {
	if replies == nil {
		return nil
	}
	return &replies[k]
}

// errDrift wraps cross-shard inconsistencies: a shard answered with state
// that cannot belong to the same deterministic stream the others hold.
var errDrift = errors.New("shard: cluster state drifted across shards")

// Allocate runs one distributed selection — core's one greedy loop over
// the cluster backend (backend.go), byte-identical to
// core.AllocateFromIndex for the same request at any shard count.
// SoftCoverage is not supported (its float masses do not re-associate
// across shards). A campaign mutation racing the run fails it with
// core.ErrStaleEpoch, like Request.Epoch pinning.
func (c *Coordinator) Allocate(ctx context.Context, req core.Request) (*core.TIRMResult, error) {
	// Every distributed allocation carries a trace id: reuse the caller's
	// (the serve middleware put it in ctx) or stamp a fresh one, so each
	// shard RPC's X-Trace-Id ties the whole scatter-gather fan-out to one
	// request in every daemon's logs.
	if obs.Trace(ctx) == "" {
		ctx = obs.WithTrace(ctx, obs.NewTraceID())
	}
	c.mu.RLock()
	inst, epoch := c.inst, c.epoch
	c.mu.RUnlock()
	if req.Epoch != 0 && req.Epoch != epoch {
		return nil, fmt.Errorf("%w: request prepared for epoch %d, cluster is at %d", core.ErrStaleEpoch, req.Epoch, epoch)
	}
	if req.Opts.SoftCoverage {
		return nil, errors.New("shard: soft coverage is not supported by sharded allocation (weighted masses do not re-associate across shards)")
	}
	be := &clusterBackend{
		c:     c,
		n:     inst.G.N(),
		epoch: epoch,
		runID: fmt.Sprintf("%s-%d", c.id, c.runSeq.Add(1)),
	}
	defer be.end()
	return core.AllocateOver(ctx, inst, be, req)
}

// pilot runs one pilot scatter-gather round and fills out[i] with ads[i]'s
// pilot: each shard grows its slice of every listed ad's pilot and ships
// its widths; merging them in global stream order reconstructs the exact
// pilot a single node would hold, so KPT and the θ targets come out
// bit-identical. Merged pilots are immutable per (epoch, ad, size) and
// cached, so steady traffic skips the width payload entirely (shards still
// grow pilots and report Have/Fresh, keeping the accounting identical to a
// cold coordinator). Have sums the shards' pre-call local sets; fresh is
// the cluster total.
func (c *Coordinator) pilot(ctx context.Context, epoch uint64, ads []int, want int, out []core.Pilot) (fresh int64, err error) {
	cached := c.lookupWidths(epoch, ads, want)
	pilots := make([]PilotReply, len(c.clients))
	req := &PilotRequest{Epoch: epoch, Ads: ads, Want: want, SkipWidths: cached != nil}
	if err := gather(ctx, c, opPilot, req, pilots); err != nil {
		return 0, wrapEpochErr(err)
	}
	var perShard [][]int64
	if cached == nil {
		perShard = make([][]int64, len(c.clients))
	}
	for i, j := range ads {
		var e *cachedPilot
		if cached != nil {
			e = cached[i]
		} else {
			for k := range c.clients {
				perShard[k] = pilots[k].Widths[i]
			}
			e = new(cachedPilot)
			if e.widths, err = c.mergeWidths(perShard, want); err != nil {
				return 0, fmt.Errorf("%w: ad %d pilot: %v", errDrift, j, err)
			}
			c.storeWidths(epoch, j, want, e)
		}
		out[i] = core.Pilot{Widths: e.widths, KPT: &e.kpt}
		for k := range c.clients {
			out[i].Have += pilots[k].Have[i]
		}
	}
	for k := range c.clients {
		fresh += pilots[k].Fresh
	}
	return fresh, nil
}

// lookupWidths returns the cached merged pilots for every listed ad at
// the given size, or nil if any is missing (the caller then requests full
// widths for all of them). The cache is scoped to one epoch — mutations
// reshuffle the position↔stream mapping, so it resets when the epoch
// moves.
func (c *Coordinator) lookupWidths(epoch uint64, ads []int, want int) []*cachedPilot {
	c.widthMu.Lock()
	defer c.widthMu.Unlock()
	if c.widthEpoch != epoch {
		c.widthEpoch = epoch
		c.widthCache = map[widthKey]*cachedPilot{}
		return nil
	}
	out := make([]*cachedPilot, len(ads))
	for i, j := range ads {
		w, ok := c.widthCache[widthKey{ad: j, want: want}]
		if !ok {
			return nil
		}
		out[i] = w
	}
	return out
}

// storeWidths caches one ad's merged pilot (widths read-only from here on).
func (c *Coordinator) storeWidths(epoch uint64, ad, want int, e *cachedPilot) {
	c.widthMu.Lock()
	defer c.widthMu.Unlock()
	if c.widthEpoch != epoch {
		return
	}
	c.widthCache[widthKey{ad: ad, want: want}] = e
}

// mergeWidths interleaves per-shard pilot width slices back into global
// stream order: position g of the merged pilot comes from the shard owning
// block g/StreamBlockSize. Integer widths merge exactly; the order matters
// because KPT sums them as floats.
func (c *Coordinator) mergeWidths(perShard [][]int64, want int) ([]int64, error) {
	for k := range perShard {
		if need := c.part.Range(k).LocalCount(want); len(perShard[k]) != need {
			return nil, fmt.Errorf("shard %d shipped %d pilot widths, its slice of %d is %d", k, len(perShard[k]), want, need)
		}
	}
	merged := make([]int64, 0, want)
	cursors := make([]int, len(perShard))
	for g := 0; g < want; g++ {
		k := (g / rrset.StreamBlockSize) % c.part.NumShards()
		merged = append(merged, perShard[k][cursors[k]])
		cursors[k]++
	}
	return merged, nil
}

// wrapEpochErr translates a shard-side stale-epoch rejection into
// core.ErrStaleEpoch so callers (serve's 409 path, epoch-pinned clients)
// handle distributed and single-node races identically.
func wrapEpochErr(err error) error {
	if errors.Is(err, ErrStaleEpoch) {
		return fmt.Errorf("%w: %v", core.ErrStaleEpoch, err)
	}
	return err
}

// Warm presamples the whole cluster to the depth a single-node BuildIndex
// would: per ad, the global pilot plus the first Eq. 5 target from the
// pilot's KPT estimate. Like its single-node counterpart it only changes
// how much is sampled ahead of traffic, never any allocation's content.
func (c *Coordinator) Warm(ctx context.Context, opts core.TIRMOptions) error {
	c.mu.RLock()
	numAds := len(c.inst.Ads)
	c.mu.RUnlock()
	for j := 0; j < numAds; j++ {
		if err := c.warmAd(ctx, j, opts); err != nil {
			return err
		}
	}
	return nil
}

// warmAd presamples one ad cluster-wide (the distributed mirror of core's
// per-ad presample): global pilot → θ at s = 1 → ensure.
func (c *Coordinator) warmAd(ctx context.Context, j int, opts core.TIRMOptions) error {
	opts = opts.WithDefaults()
	c.mu.RLock()
	inst, epoch := c.inst, c.epoch
	c.mu.RUnlock()
	var pilot [1]core.Pilot
	if _, err := c.pilot(ctx, epoch, []int{j}, opts.MinTheta, pilot[:]); err != nil {
		return err
	}
	want := core.InitialTheta(pilot[0].Widths, inst.G.N(), inst.G.M(), opts)
	return wrapEpochErr(gather[EnsureReply](ctx, c, opEnsure, &EnsureRequest{Epoch: epoch, Ad: j, Want: want}, nil))
}

// AddAdBase activates roster position base on every shard (how simulated
// arrivals join a sharded campaign), advances the epoch, and warms the new
// ad to the same depth a single-node AddAd presamples. Returns the new
// ad's campaign position.
func (c *Coordinator) AddAdBase(ctx context.Context, base int, opts core.TIRMOptions) (int, error) {
	if base < 0 || base >= len(c.roster.Ads) {
		return 0, fmt.Errorf("shard: roster position %d out of range (roster has %d)", base, len(c.roster.Ads))
	}
	return c.addAd(ctx, AddAdRequest{Base: base}, c.roster.Ads[base], opts)
}

// AddAdSpec adds a template-cloned advertiser on every shard — the
// sharded form of the serve layer's POST /ads.
func (c *Coordinator) AddAdSpec(ctx context.Context, spec AdSpec, opts core.TIRMOptions) (int, error) {
	c.mu.RLock()
	inst := c.inst
	c.mu.RUnlock()
	ad, err := core.CloneAd(inst, spec)
	if err != nil {
		return 0, err
	}
	return c.addAd(ctx, AddAdRequest{Base: -1, Spec: spec}, ad, opts)
}

// addAd broadcasts one campaign addition, keeps the coordinator's mirror
// in lockstep, and warms the new ad.
func (c *Coordinator) addAd(ctx context.Context, req AddAdRequest, ad core.Ad, opts core.TIRMOptions) (int, error) {
	c.mu.Lock()
	req.Epoch = c.epoch
	reply, err := c.mutate(ctx, opAddAd, &req)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	inst := *c.inst
	inst.Ads = append(append([]core.Ad(nil), c.inst.Ads...), ad)
	c.inst = &inst
	c.mu.Unlock()
	// The mutation is committed cluster-wide at this point; warm-up is a
	// prefetch that never changes allocation content, so its failure is
	// logged rather than reported — selection simply samples on demand.
	if err := c.warmAd(ctx, reply.Position, opts); err != nil {
		c.logf("shard: warm-up of new ad %d failed (selection will sample on demand): %v", reply.Position, err)
	}
	return reply.Position, nil
}

// RemoveAd retires the campaign position on every shard, keeping the
// mirror and epoch in lockstep.
func (c *Coordinator) RemoveAd(ctx context.Context, pos int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pos < 0 || pos >= len(c.inst.Ads) {
		return fmt.Errorf("shard: remove ad %d, campaign has %d", pos, len(c.inst.Ads))
	}
	if _, err := c.mutate(ctx, opRemoveAd, &RemoveAdRequest{Epoch: c.epoch, Pos: pos}); err != nil {
		return err
	}
	inst := *c.inst
	inst.Ads = append(append([]core.Ad(nil), c.inst.Ads[:pos]...), c.inst.Ads[pos+1:]...)
	c.inst = &inst
	return nil
}

// mutate applies one campaign mutation to every shard in turn, shard 0
// first, and moves the coordinator's epoch to where shard 0 reports it.
// Every other shard's reply must equal shard 0's. The caller holds c.mu.
func (c *Coordinator) mutate(ctx context.Context, o op, req any) (MutateReply, error) {
	var first MutateReply
	for k, cl := range c.clients {
		var reply MutateReply
		if err := call(ctx, cl, o, req, &reply); err != nil {
			return MutateReply{}, fmt.Errorf("shard: %s on shard %d: %w (cluster epochs may have diverged; restart the cluster)", o, k, wrapEpochErr(err))
		}
		if k == 0 {
			first, c.epoch = reply, reply.Epoch
		} else if reply != first {
			return MutateReply{}, fmt.Errorf("%w: shard %d reports %+v after %s, shard 0 %+v — restart the cluster", errDrift, k, reply, o, first)
		}
	}
	return first, nil
}

// SyncEstimates broadcasts a bandit estimator snapshot to every shard,
// concurrently, so sharded allocation and any shard-local consumer see
// the same integer estimate table. Unlike campaign mutations it carries
// no epoch pin — estimator state is name-keyed and epoch-free — so a
// failed shard can simply be retried with the next (monotone) snapshot.
func (c *Coordinator) SyncEstimates(ctx context.Context, st bandit.State) error {
	if err := gather[struct{}](ctx, c, opSyncEstimates, &SyncEstimatesRequest{State: st}, nil); err != nil {
		return fmt.Errorf("shard: sync estimates: %w", err)
	}
	return nil
}
