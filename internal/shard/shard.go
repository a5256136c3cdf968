package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rrset"
)

// maxOpenRuns bounds concurrent selection runs per shard; each run holds
// per-ad coverage collections, so an unbounded count would let a stuck or
// malicious coordinator grow the process without limit.
const maxOpenRuns = 64

// runTTL is how long an idle run survives before being reaped — the
// backstop for a coordinator that died mid-run and never sent End.
const runTTL = 10 * time.Minute

// Shard hosts one slot of the placed RR-set universe: a per-slot
// core.Index epoch (the whole sample of every ad whose stream the slot
// owns, placeholders for the rest) plus the per-run coverage collections
// distributed selection runs mutate. It implements the full RPC surface of
// Client transport-side, and refuses any op naming an ad it does not own;
// use LocalClient for in-process access or Handler for HTTP.
//
// Concurrency: distinct runs may proceed concurrently (each owns its
// collections), but the RPCs of one run must be issued sequentially — the
// coordinator's loop is sequential per run by construction, and reply
// buffers are reused across a run's calls.
type Shard struct {
	part   rrset.StreamPartition
	roster *core.Instance // full generated roster; arrivals activate positions
	idx    *core.Index
	// Dataset optionally names the generated instance for Info (set by the
	// daemon before serving; never read by the shard runtime itself).
	Dataset DatasetParams
	// Logf, when set before Handler is called, receives one structured
	// key=value line per HTTP request (component=adshard, trace id, method,
	// path, status, duration). Nil disables request logging; metrics and
	// trace propagation run either way. cmd/adshard sets it to log.Printf.
	Logf func(format string, args ...any)

	lifeMu sync.Mutex // serializes campaign mutations with their epoch checks

	mu       sync.Mutex
	runs     map[string]*shardRun
	draining atomic.Bool
	// states recycles the runs' coverage state (runState). A pointer, never
	// a value: the runtime lists every sync.Pool it has seen a Put on for one
	// GC cycle past its last use, and a pool inside the shard would be listed
	// by interior pointer — holding the shard, index and all, that long.
	states *sync.Pool
	// opHook, when set (tests only), runs in every run op between finding
	// the run and taking its opMu: the window in which the run can be
	// retired under the op.
	opHook func()
	// frames tracks the connections Handler upgraded to framed ops
	// (frames.go); Close ends them. frameHook, when set (tests only), sees
	// each frame's request and reply body sizes.
	frames    frameConns
	frameHook func(req, reply int)

	// The daemon's /metrics registry, with the request metrics and span
	// tracer Handler's middleware records into (obs defaults: tracing is
	// always on for the HTTP surface, span cost is per-request and bounded)
	// and the shard's own lifetime counts, incremented where they happen.
	reg         *obs.Registry
	httpMetrics *obs.HTTPMetrics
	tracer      *obs.Tracer
	runsOpened  *obs.Counter
	commits     *obs.Counter
}

// shardRun is one distributed selection run's shard-local state.
type shardRun struct {
	ep       core.EpochView
	lastUsed atomic.Int64 // unix nanos; written by run ops, read by the reaper

	// opMu serializes the run's ops, its build and its retirement. The
	// coordinator is sequential per run by contract, but a retried RPC whose
	// first attempt timed out client-side may still be executing here when
	// the retry arrives — the lock makes the late duplicate queue behind it,
	// where the sequence guard then answers it from cache.
	opMu sync.Mutex
	// closed marks a retired run — ended, replaced by a retried Start, or
	// reaped — and is set under opMu before st goes back to the pool: an op
	// that found the run before it left the table fails with ErrUnknownRun
	// instead of touching recycled state.
	closed bool
	st     *runState

	// Sequence guard (CommitRequest.Seq semantics): the last applied
	// sequence number, its op kind and its reply — an exact replay returns
	// the reply without touching coverage state, so a retried commit whose
	// first reply was lost is a no-op. The reply stays in the st.replies
	// buffer it was written to; the next op writes the other one.
	lastSeq    int64
	lastKind   op
	lastCommit CommitReply
	lastGrow   GrowReply
}

// runState is the recyclable part of a run: one rrset.Workspace per ad,
// the per-call scratch and the reply buffers. Start takes one from the
// shard's pool; retire releases it — it then holds nothing of any index —
// and puts it back, so a warm shard builds no per-run coverage state.
type runState struct {
	ads  []*shardRunAd // ads[:live] are the run's, the rest parked
	live int

	// Per-call scratch, shared across the run's ads (run RPCs are
	// sequential): stamp/pos drive sparse-count accumulation.
	stamp    []uint64
	stampGen uint64
	pos      []int32
	// replies holds two buffer pairs that Commit, Credit and Grow write
	// their sparse replies into by turns, replies[next] being the one the
	// coming op writes: the sequence guard keeps the last reply in the other
	// one without copying it.
	replies [2]SparseCounts
	next    int
	start   StartReply // Start's reply buffers
	gains   []int32    // Gains' reply buffer
}

// open adds ad j at θ to the run, on a parked ad slot when there is one.
func (st *runState) open(j, theta int) *shardRunAd {
	if st.live == len(st.ads) {
		st.ads = append(st.ads, new(shardRunAd))
	}
	ra := st.ads[st.live]
	st.live++
	ra.j, ra.theta = j, theta
	return ra
}

// ad returns the run's state of ad j, or nil when the run has no such ad.
func (st *runState) ad(j int) *shardRunAd {
	for _, ra := range st.ads[:st.live] {
		if ra.j == j {
			return ra
		}
	}
	return nil
}

// release parks every ad slot, dropping all references into index memory
// and keeping the buffers.
func (st *runState) release() {
	for _, ra := range st.ads[:st.live] {
		ra.ws.Release()
		ra.col = nil
	}
	st.live = 0
}

// reply returns the buffer pair the coming sequenced op writes into, empty.
func (st *runState) reply() SparseCounts {
	b := st.replies[st.next]
	return SparseCounts{Nodes: b.Nodes[:0], Counts: b.Counts[:0]}
}

// keep hands the pair an op filled (grown as the op needed) to the
// sequence guard; the next op writes the other one.
func (st *runState) keep(sc SparseCounts) {
	st.replies[st.next] = sc
	st.next ^= 1
}

// checkSeq gates one sequenced op: proceed (apply it), replay (answer from
// cache), or fail with ErrBadSeq. Caller holds opMu.
func (r *shardRun) checkSeq(seq int64, kind op) (replay bool, err error) {
	switch {
	case seq <= 0:
		return false, fmt.Errorf("%w: got seq %d, a run's ops are numbered from 1", ErrBadSeq, seq)
	case seq == r.lastSeq:
		if r.lastKind != kind {
			return false, fmt.Errorf("%w: replay of seq %d as %s, the applied op was %s", ErrBadSeq, seq, kind, r.lastKind)
		}
		return true, nil
	case seq == r.lastSeq+1:
		return false, nil
	default:
		return false, fmt.Errorf("%w: got seq %d, run is at %d", ErrBadSeq, seq, r.lastSeq)
	}
}

// storeCommit records an applied Commit/Credit under the sequence guard;
// its delta was written into st.reply(). Caller holds opMu.
func (r *shardRun) storeCommit(seq int64, kind op, reply CommitReply) {
	r.lastSeq, r.lastKind, r.lastCommit = seq, kind, reply
	r.st.keep(reply.Delta)
}

// storeGrow is storeCommit for Grow replies. Caller holds opMu.
func (r *shardRun) storeGrow(seq int64, reply GrowReply) {
	r.lastSeq, r.lastKind, r.lastGrow = seq, opGrow, reply
	r.st.keep(reply.Added)
}

// shardRunAd is one ad's coverage state within a run.
type shardRunAd struct {
	ws    rrset.Workspace // col's backing arrays, recycled with the run state
	col   *rrset.Collection
	j     int // the ad's campaign position
	theta int // θ the collection's sets correspond to
}

// NewShard builds a shard over roster.Ads[:initialAds] (0 = all): a
// per-slot index that samples only the ads whose streams part owns. No
// presampling happens here — the coordinator warms each ad on its owner
// (Pilot + Ensure) with θ sized exactly as a single node would.
func NewShard(roster *core.Instance, initialAds int, seed uint64, part rrset.StreamPartition) (*Shard, error) {
	if initialAds <= 0 || initialAds > len(roster.Ads) {
		initialAds = len(roster.Ads)
	}
	base := *roster
	base.Ads = append([]core.Ad(nil), roster.Ads[:initialAds]...)
	idx, err := core.BuildShardIndex(&base, seed, part)
	if err != nil {
		return nil, err
	}
	return newShard(roster, idx), nil
}

// NewShardFromIndex wraps a shard index restored by
// core.LoadShardIndexSnapshot (or built elsewhere). roster supplies the
// full arrival roster; the index's instance must be a positional prefix of
// it for Base adds to stay meaningful.
func NewShardFromIndex(roster *core.Instance, idx *core.Index) (*Shard, error) {
	if idx.NumAds() > len(roster.Ads) {
		return nil, fmt.Errorf("shard: index has %d ads, roster only %d", idx.NumAds(), len(roster.Ads))
	}
	return newShard(roster, idx), nil
}

func newShard(roster *core.Instance, idx *core.Index) *Shard {
	s := &Shard{
		part:   idx.Partition(),
		roster: roster,
		idx:    idx,
		runs:   map[string]*shardRun{},
		states: &sync.Pool{New: func() any { return new(runState) }},
	}
	s.registerMetrics()
	return s
}

// Index exposes the shard's per-slot index (snapshot persistence in
// cmd/adshard writes through it).
func (s *Shard) Index() *core.Index { return s.idx }

// registerMetrics builds the daemon's /metrics registry: the HTTP request
// and tracer metrics, the shard's two lifetime counters, and scrape-time
// views over the state Info already reports (epoch, campaign size, sample
// counts and footprint, open runs, drain flag).
func (s *Shard) registerMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.httpMetrics = obs.NewHTTPMetrics(reg, "adshard")
	s.tracer = obs.NewTracer(obs.TracerConfig{})
	s.tracer.EnableMetrics(reg, "adshard")
	obs.BuildInfo(reg, "adshard")
	reg.GaugeFunc("adshard_epoch",
		"Campaign epoch the shard currently serves.",
		func() float64 { return float64(s.idx.CurrentEpoch().Version()) })
	reg.GaugeFunc("adshard_campaign_ads",
		"Advertisers in the shard's current campaign set.",
		func() float64 { return float64(s.idx.CurrentEpoch().NumAds()) })
	reg.CounterFunc("adshard_sets_sampled_total",
		"Local RR sets drawn over the shard's lifetime.",
		func() uint64 { return uint64(s.idx.SetsSampled()) })
	reg.GaugeFunc("adshard_index_mem_bytes",
		"Stored-sample footprint of the shard's per-slot index in bytes.",
		func() float64 { return float64(s.idx.MemBytes()) })
	reg.GaugeFunc("adshard_open_runs",
		"Live distributed selection runs holding state on this shard.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.runs))
		})
	reg.GaugeFunc("adshard_frame_connections",
		"Coordinator connections upgraded to framed ops and not yet closed.",
		func() float64 { return float64(s.frames.open()) })
	s.runsOpened = reg.Counter("adshard_runs_opened_total",
		"Selection runs opened on this shard over its lifetime.")
	s.commits = reg.Counter("adshard_commits_total",
		"Seed commits applied on this shard over its lifetime.")
	reg.GaugeFunc("adshard_draining",
		"1 when the shard refuses new runs, 0 otherwise.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
}

// Drain makes the shard refuse new runs; in-flight runs finish normally.
// There is no undrain — a drained shard is on its way out.
func (s *Shard) Drain() { s.draining.Store(true) }

// Info implements the Client surface shard-side.
func (s *Shard) Info() ShardInfo {
	s.mu.Lock()
	open := len(s.runs)
	s.mu.Unlock()
	ep := s.idx.CurrentEpoch()
	streams := make([]uint64, ep.NumAds())
	for j := range streams {
		streams[j] = ep.AdStream(j)
	}
	return ShardInfo{
		Dataset:             s.Dataset,
		Shard:               s.part.Shard,
		NumShards:           s.part.Size(),
		Seed:                s.idx.Seed(),
		Fingerprint:         core.InstanceFingerprint(s.roster),
		CampaignFingerprint: campaignFingerprint(ep.Inst()),
		Epoch:               ep.Version(),
		NumAds:              ep.NumAds(),
		Streams:             streams,
		SetsSampled:         s.idx.SetsSampled(),
		MemBytes:            s.idx.MemBytes(),
		OpenRuns:            open,
		Draining:            s.draining.Load(),
	}
}

// epochView resolves the current epoch and checks it against the pinned
// one a request carries.
func (s *Shard) epochView(epoch uint64) (core.EpochView, error) {
	ep := s.idx.CurrentEpoch()
	if epoch != 0 && epoch != ep.Version() {
		return core.EpochView{}, fmt.Errorf("%w: request prepared for epoch %d, shard is at %d",
			ErrStaleEpoch, epoch, ep.Version())
	}
	return ep, nil
}

// checkAds validates ad positions against an epoch: each must be in range
// and owned by this shard's slot.
func (s *Shard) checkAds(ep core.EpochView, ads []int) error {
	for _, j := range ads {
		if j < 0 || j >= ep.NumAds() {
			return fmt.Errorf("shard: ad %d out of range (campaign has %d)", j, ep.NumAds())
		}
		if !ep.Owns(j) {
			return fmt.Errorf("shard: ad %d (stream %d) lives on slot %d, this is slot %d of %d",
				j, ep.AdStream(j), rrset.SlotOf(ep.AdStream(j), s.part.Size()), s.part.Shard, s.part.Size())
		}
	}
	return nil
}

// Pilot implements the Client surface shard-side.
func (s *Shard) Pilot(req PilotRequest) (PilotReply, error) {
	ep, err := s.epochView(req.Epoch)
	if err != nil {
		return PilotReply{}, err
	}
	if err := s.checkAds(ep, req.Ads); err != nil {
		return PilotReply{}, err
	}
	reply := PilotReply{
		Have: make([]int, len(req.Ads)),
	}
	if !req.SkipWidths {
		reply.Widths = make([][]int64, len(req.Ads))
	}
	for i, j := range req.Ads {
		reply.Have[i] = ep.AdHave(j)
		widths, fresh := ep.AdPilot(j, req.Want)
		if !req.SkipWidths {
			reply.Widths[i] = widths
		}
		reply.Fresh += fresh
	}
	return reply, nil
}

// Ensure implements the Client surface shard-side.
func (s *Shard) Ensure(req EnsureRequest) (EnsureReply, error) {
	ep, err := s.epochView(req.Epoch)
	if err != nil {
		return EnsureReply{}, err
	}
	if err := s.checkAds(ep, []int{req.Ad}); err != nil {
		return EnsureReply{}, err
	}
	return EnsureReply{Fresh: ep.AdEnsure(req.Ad, req.Want)}, nil
}

// Start implements the Client surface shard-side.
func (s *Shard) Start(req StartRequest) (StartReply, error) {
	if s.draining.Load() {
		return StartReply{}, ErrDraining
	}
	ep, err := s.epochView(req.Epoch)
	if err != nil {
		return StartReply{}, err
	}
	if err := s.checkAds(ep, req.Ads); err != nil {
		return StartReply{}, err
	}
	if len(req.Thetas) != len(req.Ads) {
		return StartReply{}, fmt.Errorf("shard: %d thetas for %d ads", len(req.Thetas), len(req.Ads))
	}
	now := time.Now()
	run := &shardRun{ep: ep}
	run.lastUsed.Store(now.UnixNano())
	// The run enters the table locked, so an op that finds it waits until
	// it is built.
	run.opMu.Lock()
	defer run.opMu.Unlock()

	s.mu.Lock()
	retired := s.reapLocked(now)
	old, dup := s.runs[req.RunID]
	full := !dup && len(s.runs) >= maxOpenRuns
	if !full {
		// Level-triggered: re-opening an existing run id replaces its state
		// wholesale with a byte-identical copy (the deterministic stream
		// re-derives the same sets), so a retried Start is safe.
		s.runs[req.RunID] = run
		if dup {
			retired = append(retired, old)
		}
	}
	s.mu.Unlock()
	for _, r := range retired {
		s.retire(r)
	}
	if full {
		return StartReply{}, fmt.Errorf("shard: %d runs already open", maxOpenRuns)
	}

	st := s.states.Get().(*runState)
	run.st = st
	n := ep.Inst().G.N()
	reply := &st.start
	reply.Cov = resized(reply.Cov, len(req.Ads))
	reply.LocalSets = resized(reply.LocalSets, len(req.Ads))
	reply.Kernels = resized(reply.Kernels, len(req.Ads))
	reply.Fresh = 0
	for i, j := range req.Ads {
		v, inv, fresh := ep.AdView(j, req.Thetas[i])
		reply.Fresh += fresh
		ra := st.open(j, req.Thetas[i])
		ra.col = ra.ws.Collection(n, v, inv)
		reply.Kernels[i] = uint8(ra.col.Kernel())
		sc := SparseCounts{Nodes: reply.Cov[i].Nodes[:0], Counts: reply.Cov[i].Counts[:0]}
		for u := 0; u < n; u++ {
			if c := ra.col.Coverage(int32(u)); c > 0 {
				sc.Nodes = append(sc.Nodes, int32(u))
				sc.Counts = append(sc.Counts, int32(c))
			}
		}
		reply.Cov[i] = sc
		reply.LocalSets[i] = v.Len()
	}
	s.runsOpened.Inc()
	return *reply, nil
}

// lock resolves a run and one of its ads and takes the run's opMu, which
// the caller releases. A run retired while the op waited for opMu is
// unknown by the time the op gets it.
func (s *Shard) lock(runID string, ad int) (*shardRun, *shardRunAd, error) {
	s.mu.Lock()
	r, ok := s.runs[runID]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownRun, runID)
	}
	r.lastUsed.Store(time.Now().UnixNano())
	if s.opHook != nil {
		s.opHook()
	}
	r.opMu.Lock()
	if r.closed {
		r.opMu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q ended while the op waited", ErrUnknownRun, runID)
	}
	ra := r.st.ad(ad)
	if ra == nil {
		r.opMu.Unlock()
		return nil, nil, fmt.Errorf("shard: run %q has no ad %d", runID, ad)
	}
	return r, ra, nil
}

// Commit implements the Client surface shard-side.
func (s *Shard) Commit(req CommitRequest) (CommitReply, error) {
	r, ra, err := s.lock(req.RunID, req.Ad)
	if err != nil {
		return CommitReply{}, err
	}
	defer r.opMu.Unlock()
	replay, err := r.checkSeq(req.Seq, opCommit)
	if err != nil {
		return CommitReply{}, err
	}
	if replay {
		return r.lastCommit, nil
	}
	buf := r.st.reply()
	covered, nodes, decs := ra.col.CoverNodeDelta(req.Node, buf.Nodes, buf.Counts)
	s.commits.Inc()
	reply := CommitReply{Covered: covered, Delta: SparseCounts{Nodes: nodes, Counts: decs}}
	r.storeCommit(req.Seq, opCommit, reply)
	return reply, nil
}

// Credit implements the Client surface shard-side.
func (s *Shard) Credit(req CreditRequest) (CommitReply, error) {
	r, ra, err := s.lock(req.RunID, req.Ad)
	if err != nil {
		return CommitReply{}, err
	}
	defer r.opMu.Unlock()
	replay, err := r.checkSeq(req.Seq, opCredit)
	if err != nil {
		return CommitReply{}, err
	}
	if replay {
		return r.lastCommit, nil
	}
	buf := r.st.reply()
	covered, nodes, decs := ra.col.CountAndCoverFromDelta(req.Node, req.FromGlobal, buf.Nodes, buf.Counts)
	reply := CommitReply{Covered: covered, Delta: SparseCounts{Nodes: nodes, Counts: decs}}
	r.storeCommit(req.Seq, opCredit, reply)
	return reply, nil
}

// Grow implements the Client surface shard-side.
func (s *Shard) Grow(req GrowRequest) (GrowReply, error) {
	r, ra, err := s.lock(req.RunID, req.Ad)
	if err != nil {
		return GrowReply{}, err
	}
	defer r.opMu.Unlock()
	replay, err := r.checkSeq(req.Seq, opGrow)
	if err != nil {
		return GrowReply{}, err
	}
	if replay {
		return r.lastGrow, nil
	}
	if req.FromGlobal != ra.theta {
		return GrowReply{}, fmt.Errorf("shard: grow from θ=%d, run ad is at %d", req.FromGlobal, ra.theta)
	}
	v, fresh := r.ep.AdWindow(req.Ad, req.FromGlobal, req.ToGlobal)
	added := r.st.sparseFromView(r.ep.Inst().G.N(), v)
	ra.col.AddFamily(v)
	ra.theta = req.ToGlobal
	reply := GrowReply{Added: added, LocalSets: v.Len(), Fresh: fresh}
	r.storeGrow(req.Seq, reply)
	return reply, nil
}

// sparseFromView accumulates a view's per-node membership counts into the
// reply buffer the coming sequenced op writes.
func (st *runState) sparseFromView(n int, v rrset.FamilyView) SparseCounts {
	if len(st.stamp) < n {
		st.stamp = make([]uint64, n)
		st.pos = make([]int32, n)
	}
	st.stampGen++
	gen := st.stampGen
	sc := st.reply()
	for i := 0; i < v.Len(); i++ {
		for _, u := range v.Set(i) {
			if st.stamp[u] == gen {
				sc.Counts[st.pos[u]]++
				continue
			}
			st.stamp[u] = gen
			st.pos[u] = int32(len(sc.Nodes))
			sc.Nodes = append(sc.Nodes, u)
			sc.Counts = append(sc.Counts, 1)
		}
	}
	return sc
}

// Gains implements the Client surface shard-side.
func (s *Shard) Gains(req GainsRequest) (GainsReply, error) {
	r, ra, err := s.lock(req.RunID, req.Ad)
	if err != nil {
		return GainsReply{}, err
	}
	defer r.opMu.Unlock()
	out := resized(r.st.gains, len(req.Nodes))
	r.st.gains = out
	for i, u := range req.Nodes {
		out[i] = int32(ra.col.Coverage(u))
	}
	return GainsReply{Cov: out}, nil
}

// End implements the Client surface shard-side. Ending an unknown run is a
// no-op (the coordinator ends best-effort on error paths).
func (s *Shard) End(runID string) {
	s.mu.Lock()
	r := s.runs[runID]
	delete(s.runs, runID)
	s.mu.Unlock()
	if r != nil {
		s.retire(r)
	}
}

// reapLocked takes the runs idle past runTTL out of the table and returns
// them, for the caller to retire once it has released s.mu.
func (s *Shard) reapLocked(now time.Time) (idle []*shardRun) {
	for id, r := range s.runs {
		if now.UnixNano()-r.lastUsed.Load() > int64(runTTL) {
			delete(s.runs, id)
			idle = append(idle, r)
		}
	}
	return idle
}

// retire finishes a run already taken out of the run table: it waits for
// the op in flight, if any, marks the run closed, so an op that found it
// before it left the table fails, and parks its state in the pool. The
// only bytes it can change under a caller are those of a reply still
// being written to a client that gave up on it — which no one reads.
func (s *Shard) retire(r *shardRun) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.closed = true
	r.st.release()
	s.states.Put(r.st)
	r.st = nil
}

// AddAd implements the Client surface shard-side: it appends the requested
// advertiser (roster activation or template clone) to the campaign set,
// advancing the epoch, and reports the new ad's stream id — which names
// its owner. The coordinator broadcasts the identical mutation to every
// shard, so stream-id assignment — and with it every ad's placement —
// stays in lockstep across the cluster.
func (s *Shard) AddAd(req AddAdRequest) (MutateReply, error) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	ep, err := s.epochView(req.Epoch)
	if err != nil {
		return MutateReply{}, err
	}
	var ad core.Ad
	if req.Base >= 0 {
		if req.Base >= len(s.roster.Ads) {
			return MutateReply{}, fmt.Errorf("shard: roster position %d out of range (roster has %d)", req.Base, len(s.roster.Ads))
		}
		ad = s.roster.Ads[req.Base]
	} else {
		if ad, err = core.CloneAd(ep.Inst(), req.Spec); err != nil {
			return MutateReply{}, err
		}
	}
	pos, err := s.idx.AddAd(ad, core.TIRMOptions{})
	if err != nil {
		return MutateReply{}, err
	}
	ep = s.idx.CurrentEpoch()
	return MutateReply{Epoch: ep.Version(), Position: pos, NumAds: ep.NumAds(), Stream: ep.AdStream(pos)}, nil
}

// RemoveAd implements the Client surface shard-side.
func (s *Shard) RemoveAd(req RemoveAdRequest) (MutateReply, error) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if _, err := s.epochView(req.Epoch); err != nil {
		return MutateReply{}, err
	}
	if err := s.idx.RemoveAd(req.Pos); err != nil {
		return MutateReply{}, err
	}
	return MutateReply{Epoch: s.idx.Epoch(), NumAds: s.idx.NumAds()}, nil
}
