package shard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rrset"
)

// Config shapes a Coordinator.
type Config struct {
	// Roster is the full generated instance the cluster was built from;
	// campaign arrivals activate its positions. Required.
	Roster *core.Instance
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
// clusterBackend). Each ad's sample lives whole on one shard, its owner,
// and every per-ad op goes there alone. Allocations are byte-identical to
// core.AllocateFromIndex over a single-node index at any K (see package
// comment); campaign mutations broadcast to every shard in lockstep.
//
// Safe for concurrent use: allocations run under distinct run ids, and
// mutations serialize against them only at the epoch snapshot.
type Coordinator struct {
	clients []Client
	verify  bool
	roster  *core.Instance
	logf    func(format string, args ...any)
	metrics *Metrics
	id      string
	runSeq  atomic.Uint64
	reruns  int // R, the most replicas a slot has: Allocate's re-run budget
	// backends recycles the runs' state (clusterBackend): counter mirrors,
	// request and reply rows. A pointer, for the reason Shard.states is.
	backends *sync.Pool

	mu  sync.RWMutex // guards cur (mutations swap it)
	cur *mirror

	// Pilot-width cache: an ad's pilot widths are immutable for a given
	// (epoch, ad position, pilot size), and every allocation needs them —
	// and KPT over them — so steady traffic should neither re-ship MinTheta
	// int64s per ad per request nor recompute KPT. Cleared wholesale when
	// the epoch moves.
	widthMu    sync.Mutex
	widthEpoch uint64
	widthCache map[widthKey]*cachedPilot
}

// mirror is the coordinator's copy of one cluster epoch: the campaign
// instance and where each ad's sample lives. Immutable; mutations swap in a
// new one.
type mirror struct {
	epoch uint64
	inst  *core.Instance
	// owner[j] is the slot holding position j's sample: the ad's stream id
	// mod K, as the shards report the ids (Info, then each AddAd reply).
	owner []int
}

// bySlot groups the indices of ads by the slot that owns each ad into at,
// one row per slot (rows reused): at[k] lists, in order, the i whose ads[i]
// lives on slot k.
func (m *mirror) bySlot(ads []int, at [][]int) [][]int {
	for k := range at {
		at[k] = at[k][:0]
	}
	for i, j := range ads {
		at[m.owner[j]] = append(at[m.owner[j]], i)
	}
	return at
}

// cachedPilot is one entry of the width cache: an ad's pilot and the KPT
// values sized from it.
type cachedPilot struct {
	widths []int64
	kpt    core.KPTCache
}

// widthKey identifies one cached pilot within an epoch.
type widthKey struct {
	ad   int
	want int
}

// NewCoordinator validates a cluster and fronts it: every client must
// report the same K, seed, roster fingerprint, epoch, campaign size and
// stream ids, and client i must hold partition slot i. The coordinator's
// campaign mirror starts as the roster prefix the shards report, each ad on
// the slot its stream id names; a cluster whose live campaign has diverged
// from that prefix (in-memory mutations survive on running shards across a
// coordinator restart) is refused via the campaign fingerprint rather than
// silently mis-priced. ctx bounds the validation probes.
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
	fp := core.InstanceFingerprint(cfg.Roster)
	var first ShardInfo
	reruns := 1
	for i, cl := range clients {
		if rs, ok := cl.(*ReplicaSet); ok {
			reruns = max(reruns, len(rs.replicas))
		}
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
			info.CampaignFingerprint != first.CampaignFingerprint || !slices.Equal(info.Streams, first.Streams) {
			return nil, fmt.Errorf("shard: shard %d state (seed %d, epoch %d, streams %v) diverges from shard 0 (seed %d, epoch %d, streams %v)",
				i, info.Seed, info.Epoch, info.Streams, first.Seed, first.Epoch, first.Streams)
		}
	}
	if first.NumAds > len(cfg.Roster.Ads) {
		return nil, fmt.Errorf("shard: cluster campaign has %d ads, roster only %d", first.NumAds, len(cfg.Roster.Ads))
	}
	if len(first.Streams) != first.NumAds {
		return nil, fmt.Errorf("shard: cluster reports %d stream ids for %d ads", len(first.Streams), first.NumAds)
	}
	owner := make([]int, first.NumAds)
	for j, t := range first.Streams {
		owner[j] = rrset.SlotOf(t, len(clients))
	}
	inst := *cfg.Roster
	inst.Ads = append([]core.Ad(nil), cfg.Roster.Ads[:first.NumAds]...)
	if got := campaignFingerprint(&inst); got != first.CampaignFingerprint {
		return nil, fmt.Errorf("shard: cluster campaign (fingerprint %#x) is not the roster prefix this coordinator would mirror (%#x) — in-memory mutations survived on the shards; restart them (snapshots restore the as-built campaign) or the whole cluster",
			first.CampaignFingerprint, got)
	}
	return &Coordinator{
		clients:    clients,
		verify:     cfg.Verify,
		roster:     cfg.Roster,
		logf:       cfg.Logf,
		metrics:    cfg.Metrics,
		id:         fmt.Sprintf("run-%x", time.Now().UnixNano()),
		reruns:     reruns,
		backends:   &sync.Pool{New: func() any { return new(clusterBackend) }},
		cur:        &mirror{epoch: first.Epoch, inst: &inst, owner: owner},
		widthEpoch: first.Epoch,
		widthCache: map[widthKey]*cachedPilot{},
	}, nil
}

// NumShards returns the cluster's K.
func (c *Coordinator) NumShards() int { return len(c.clients) }

// current returns the mirror of the cluster's current epoch.
func (c *Coordinator) current() *mirror {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cur
}

// Inst returns the coordinator's current campaign instance (a stable
// snapshot; mutations swap in a fresh one).
func (c *Coordinator) Inst() *core.Instance { return c.current().inst }

// Epoch returns the cluster's current campaign epoch.
func (c *Coordinator) Epoch() uint64 { return c.current().epoch }

// EpochInst returns the current epoch and its instance as one consistent
// pair.
func (c *Coordinator) EpochInst() (uint64, *core.Instance) {
	m := c.current()
	return m.epoch, m.inst
}

// SetsSampled sums the shards' lifetime sample counts (the distributed
// equivalent of Index.SetsSampled).
func (c *Coordinator) SetsSampled(ctx context.Context) (int64, error) {
	var total int64
	for _, cl := range c.clients {
		var info ShardInfo
		if err := call(ctx, cl, opInfo, nil, &info); err != nil {
			return 0, fmt.Errorf("shard: shard unreachable: %w", err)
		}
		total += info.SetsSampled
	}
	return total, nil
}

// gather sends op o to every slot k whose request reqs[k] is non-nil and
// leaves slot k's reply in replies[k]; nil replies discards them. A per-ad
// op has one request, at its ad's owner; a run-wide op one per slot that
// owns any of the run's ads; a lifecycle broadcast one per slot. Callers
// fold the replies in slot order, which keeps every aggregate's evolution
// canonical. (info, whose request is nil, never comes through here.)
//
// A run op — one whose request is a wireMessage, the test that also picks
// its binary codec — is one round of the greedy loop: a "round.<op>" span
// parents its RPCs, and with metrics on, its wall time lands in
// coordinator_round_seconds{phase=<op>}. The other ops (ensure, end) are
// lifecycle traffic — once per warm-up or run — and are not rounds.
func gather[Reply any](ctx context.Context, c *Coordinator, o op, reqs []any, replies []Reply) error {
	var req any
	for _, req = range reqs {
		if req != nil {
			break
		}
	}
	if _, round := req.(wireMessage); !round {
		return scatter(ctx, c.clients, o, reqs, replies)
	}
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	rctx, span := obs.StartSpan(ctx, roundSpans[o])
	err := scatter(rctx, c.clients, o, reqs, replies)
	if c.metrics != nil {
		c.metrics.roundSeconds.With(o.String()).Observe(time.Since(start).Seconds())
	}
	span.End()
	return err
}

// scatter is gather's fan-out: every addressed slot's call runs
// concurrently — the last one on the caller's own goroutine, so a round to
// one slot spawns none and allocates nothing — and it waits for all of
// them before returning the first error in slot order.
func scatter[Reply any](ctx context.Context, clients []Client, o op, reqs []any, replies []Reply) error {
	last, n := -1, 0
	for k, req := range reqs {
		if req != nil {
			last, n = k, n+1
		}
	}
	if n <= 1 {
		if last < 0 {
			return nil
		}
		return call(ctx, clients[last], o, reqs[last], replyAt(replies, last))
	}
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for k, req := range reqs[:last] {
		if req != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = call(ctx, clients[k], o, req, replyAt(replies, k))
			}()
		}
	}
	errs[last] = call(ctx, clients[last], o, reqs[last], replyAt(replies, last))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// one addresses req to slot k alone, in a request row of K entries.
func one(row []any, k int, req any) []any {
	clear(row)
	row[k] = req
	return row
}

// replyAt is where shard k's reply goes: replies[k], or nowhere when
// replies is nil.
func replyAt[Reply any](replies []Reply, k int) any {
	if replies == nil {
		return nil
	}
	return &replies[k]
}

// errDrift wraps cluster inconsistencies: a shard answered with state that
// cannot belong to the deterministic stream it owns.
var errDrift = errors.New("shard: cluster state drifted across shards")

// Allocate runs one distributed selection — core's one greedy loop over
// the cluster backend (backend.go), byte-identical to
// core.AllocateFromIndex for the same request at any shard count.
// SoftCoverage is not supported (the coordinator mirrors integer coverage
// only). A campaign mutation racing the run fails it with
// core.ErrStaleEpoch, like Request.Epoch pinning.
//
// A run lost to any cause — a dead replica, a restarted shard, a reaped
// run — is ended and run again from scratch under a fresh run id, at most
// R + 1 runs in all, inside ctx: replicas agree on every stream, so a
// re-run gives the same bytes (sampling accounting aside).
func (c *Coordinator) Allocate(ctx context.Context, req core.Request) (*core.TIRMResult, error) {
	// Every distributed allocation carries a trace id: reuse the caller's
	// (the serve middleware put it in ctx) or stamp a fresh one, so each
	// shard RPC's X-Trace-Id ties the whole scatter-gather fan-out to one
	// request in every daemon's logs.
	if obs.Trace(ctx) == "" {
		ctx = obs.WithTrace(ctx, obs.NewTraceID())
	}
	m := c.current()
	if req.Epoch != 0 && req.Epoch != m.epoch {
		return nil, fmt.Errorf("%w: request prepared for epoch %d, cluster is at %d", core.ErrStaleEpoch, req.Epoch, m.epoch)
	}
	if req.Opts.SoftCoverage {
		return nil, fmt.Errorf("%w: soft coverage is not supported by sharded allocation (the coordinator's counters hold integer coverage only)", core.ErrInvalidRequest)
	}
	if ex, ok := req.Observer.(core.ExplainObserver); ok && req.Explain {
		req.Observer = &explainOnce{ExplainObserver: ex}
	}
	for run := 1; ; run++ {
		be := c.newBackend(m)
		res, err := core.AllocateOver(ctx, m.inst, be, req)
		// A loop that failed before it sent a Start (a request Resolve
		// refused, a pilot no replica answered) lost no run.
		started := be.started
		be.end()
		if err == nil || run > c.reruns || !started || !rerun(ctx, err) {
			return res, err
		}
	}
}

// rerun reports whether a run that failed with err is run again. Not when
// ctx is done, the failure is terminal (stale epoch, refused request,
// cancellation), the range has no healthy replica left (serve's 503), or a
// shard drifted (it would answer the re-run wrongly too).
func rerun(ctx context.Context, err error) bool {
	return ctx.Err() == nil && Classify(err) != ClassTerminal &&
		!errors.Is(err, ErrPartitionUnavailable) && !errors.Is(err, errDrift)
}

// explainOnce passes each commit round to an explain observer once: a
// re-run repeats the rounds of the run it replaces.
type explainOnce struct {
	core.ExplainObserver
	rounds int
}

func (o *explainOnce) ObserveCommit(e core.CommitEvent) {
	if e.Round > o.rounds {
		o.rounds = e.Round
		o.ExplainObserver.ObserveCommit(e)
	}
}

// pilot runs one pilot round and fills out[i] with ads[i]'s pilot: each
// owner grows its ads' pilots and ships their widths — the very pilot a
// single node holds, so KPT and the θ targets come out bit-identical.
// Pilots are immutable per (epoch, ad, size) and cached, so steady traffic
// skips the width payload entirely (owners still grow pilots and report
// Have/Fresh, keeping the accounting identical to a cold coordinator).
// Only slots that own a listed ad are asked.
func (c *Coordinator) pilot(ctx context.Context, m *mirror, ads []int, want int, out []core.Pilot) (fresh int64, err error) {
	cached := c.lookupWidths(m.epoch, ads, want)
	at := m.bySlot(ads, make([][]int, len(c.clients)))
	reqs := make([]any, len(c.clients))
	for k, is := range at {
		if len(is) > 0 {
			req := &PilotRequest{Epoch: m.epoch, Ads: make([]int, len(is)), Want: want, SkipWidths: cached != nil}
			for x, i := range is {
				req.Ads[x] = ads[i]
			}
			reqs[k] = req
		}
	}
	pilots := make([]PilotReply, len(c.clients))
	if err := gather(ctx, c, opPilot, reqs, pilots); err != nil {
		return 0, wrapEpochErr(err)
	}
	for k, is := range at {
		if len(pilots[k].Have) != len(is) || cached == nil && len(pilots[k].Widths) != len(is) {
			return 0, fmt.Errorf("%w: shard %d piloted %d of %d ads", errDrift, k, len(pilots[k].Have), len(is))
		}
		for x, i := range is {
			var e *cachedPilot
			if cached != nil {
				e = cached[i]
			} else {
				e = &cachedPilot{widths: pilots[k].Widths[x]}
				if len(e.widths) != want {
					return 0, fmt.Errorf("%w: ad %d: shard %d shipped %d pilot widths for %d", errDrift, ads[i], k, len(e.widths), want)
				}
				c.storeWidths(m.epoch, ads[i], want, e)
			}
			out[i] = core.Pilot{Widths: e.widths, KPT: &e.kpt, Have: pilots[k].Have[x]}
		}
		fresh += pilots[k].Fresh
	}
	return fresh, nil
}

// lookupWidths returns the cached pilots for every listed ad at
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

// storeWidths caches one ad's pilot (widths read-only from here on).
func (c *Coordinator) storeWidths(epoch uint64, ad, want int, e *cachedPilot) {
	c.widthMu.Lock()
	defer c.widthMu.Unlock()
	if c.widthEpoch != epoch {
		return
	}
	c.widthCache[widthKey{ad: ad, want: want}] = e
}

// wrapEpochErr translates a shard-side stale-epoch rejection into
// core.ErrStaleEpoch so callers (serve's 409 path, epoch-pinned clients)
// handle distributed and single-node races identically. The shard's error
// stays in the chain, so it still classifies as terminal.
func wrapEpochErr(err error) error {
	if errors.Is(err, ErrStaleEpoch) {
		return fmt.Errorf("%w: %w", core.ErrStaleEpoch, err)
	}
	return err
}

// Warm presamples the whole cluster to the depth a single-node BuildIndex
// would: per ad, on its owner, the pilot plus the first Eq. 5 target from
// the pilot's KPT estimate. Like its single-node counterpart it only
// changes how much is sampled ahead of traffic, never any allocation's
// content.
func (c *Coordinator) Warm(ctx context.Context, opts core.TIRMOptions) error {
	for j := range c.Inst().Ads {
		if err := c.warmAd(ctx, j, opts); err != nil {
			return err
		}
	}
	return nil
}

// warmAd presamples one ad on its owner (the distributed mirror of core's
// per-ad presample): pilot → θ at s = 1 → ensure.
func (c *Coordinator) warmAd(ctx context.Context, j int, opts core.TIRMOptions) error {
	opts = opts.WithDefaults()
	m := c.current()
	var pilot [1]core.Pilot
	if _, err := c.pilot(ctx, m, []int{j}, opts.MinTheta, pilot[:]); err != nil {
		return err
	}
	want := core.InitialTheta(pilot[0].Widths, m.inst.G.N(), m.inst.G.M(), opts)
	reqs := one(make([]any, len(c.clients)), m.owner[j], &EnsureRequest{Epoch: m.epoch, Ad: j, Want: want})
	return wrapEpochErr(gather[EnsureReply](ctx, c, opEnsure, reqs, nil))
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
	ad, err := core.CloneAd(c.Inst(), spec)
	if err != nil {
		return 0, err
	}
	return c.addAd(ctx, AddAdRequest{Base: -1, Spec: spec}, ad, opts)
}

// addAd broadcasts one campaign addition, keeps the coordinator's mirror
// in lockstep — the new ad lives on the slot its reported stream id names
// — and warms the new ad.
func (c *Coordinator) addAd(ctx context.Context, req AddAdRequest, ad core.Ad, opts core.TIRMOptions) (int, error) {
	c.mu.Lock()
	old := c.cur
	req.Epoch = old.epoch
	reply, err := c.mutate(ctx, opAddAd, &req)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	inst := *old.inst
	inst.Ads = append(slices.Clip(old.inst.Ads), ad)
	c.cur = &mirror{
		epoch: reply.Epoch,
		inst:  &inst,
		owner: append(slices.Clip(old.owner), rrset.SlotOf(reply.Stream, len(c.clients))),
	}
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
	old := c.cur
	if pos < 0 || pos >= len(old.inst.Ads) {
		return fmt.Errorf("shard: remove ad %d, campaign has %d", pos, len(old.inst.Ads))
	}
	reply, err := c.mutate(ctx, opRemoveAd, &RemoveAdRequest{Epoch: old.epoch, Pos: pos})
	if err != nil {
		return err
	}
	inst := *old.inst
	inst.Ads = slices.Delete(slices.Clone(old.inst.Ads), pos, pos+1)
	c.cur = &mirror{epoch: reply.Epoch, inst: &inst, owner: slices.Delete(slices.Clone(old.owner), pos, pos+1)}
	return nil
}

// mutate applies one campaign mutation to every shard in turn, shard 0
// first. Every other shard's reply must equal shard 0's, which the caller —
// holding c.mu — builds the next mirror from. A failure part-way leaves
// the cluster's epochs apart, so it also moves the mirror to shard 0's
// epoch: every later run then fails its epoch pin instead of mixing epochs.
func (c *Coordinator) mutate(ctx context.Context, o op, req any) (MutateReply, error) {
	var first MutateReply
	for k, cl := range c.clients {
		var reply MutateReply
		if err := call(ctx, cl, o, req, &reply); err != nil {
			return MutateReply{}, fmt.Errorf("shard: %s on shard %d: %w (cluster epochs may have diverged; restart the cluster)", o, k, wrapEpochErr(err))
		}
		if k == 0 {
			first = reply
			c.cur = &mirror{epoch: reply.Epoch, inst: c.cur.inst, owner: c.cur.owner}
		} else if reply != first {
			return MutateReply{}, fmt.Errorf("%w: shard %d reports %+v after %s, shard 0 %+v — restart the cluster", errDrift, k, reply, o, first)
		}
	}
	return first, nil
}
