// Replica sets: R interchangeable shards serving one partition range. A
// ReplicaSet is itself a Client, so the coordinator is replication-blind —
// it sees K clients exactly as before, while each of them routes to a
// preferred replica and fails over on error.
//
// The correctness invariant is the partition determinism the golden tests
// pin: replicas of the same (seed, range) derive identical RR-set streams,
// so every integer protocol reply is replica-independent and failing over
// mid-run cannot change an allocation's bytes. Run *state* (per-run
// coverage collections) lives on whichever replica served Start, so the
// set keeps a per-run op log — the StartRequest plus every sequenced
// Commit/Credit/Grow — and rebuilds a run on a fresh replica by replaying
// it (End + Start + ops, in order). The shard-side sequence guard
// (CommitRequest.Seq) makes replays level-triggered: an op the replica
// already applied answers from cache instead of double-applying.
//
// Campaign mutations and estimator snapshots broadcast to every healthy
// replica in lockstep; a replica that misses one is marked unhealthy and
// re-warmed by Probe — epoch-bridging mutation replay plus the latest
// estimator snapshot — before rejoining.

package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// ErrPartitionUnavailable reports that every replica of one partition
// range failed an operation — the cluster cannot currently serve. The
// serve layer maps it to 503 with the degraded ranges in /healthz.
var ErrPartitionUnavailable = errors.New("shard: all replicas of partition range unavailable")

// ReplicaSetConfig shapes a ReplicaSet.
type ReplicaSetConfig struct {
	// Slot is the partition range's slot, for error text and metric
	// labels (defaults to what the replicas report).
	Slot int
	// Metrics, when non-nil, books failovers and per-replica health.
	Metrics *Metrics
	// Logf receives failover and revive messages (nil = silent).
	Logf func(format string, args ...any)
}

// ReplicaSet fronts R replicas of one partition range as a single Client.
// Safe for concurrent use under the same contract as Shard: distinct runs
// may proceed concurrently, one run's ops are sequential.
type ReplicaSet struct {
	replicas []Client
	slot     int
	metrics  *Metrics
	logf     func(format string, args ...any)

	mutMu sync.Mutex // serializes mutation broadcasts (log order = epoch order)

	mu sync.Mutex
	// healthy[i] is false from replica i's first failed op until its next
	// successful one. Unhealthy replicas are deprioritized, not abandoned:
	// an op that exhausts the healthy replicas still sweeps them before
	// declaring the range unavailable.
	healthy []bool
	runs    map[string]*replicaRun
	muts    []replicaMutation
	est     *SyncEstimatesRequest
}

// replicaRun is the op log that makes one run rebuildable on any replica.
type replicaRun struct {
	owner int // replica currently holding the run's coverage state
	start StartRequest
	ops   []repOp
}

// repOp is one logged sequenced run op: kind says which request is set.
type repOp struct {
	kind   op
	commit CommitRequest
	credit CreditRequest
	grow   GrowRequest
}

// replay re-issues the logged op against cl; the reply is of no interest.
func (o repOp) replay(ctx context.Context, cl Client) error {
	var err error
	switch o.kind {
	case opCommit:
		_, err = cl.Commit(ctx, o.commit)
	case opCredit:
		_, err = cl.Credit(ctx, o.credit)
	default:
		_, err = cl.Grow(ctx, o.grow)
	}
	return err
}

// replicaMutation is one logged campaign mutation, kept so a revived
// replica can be walked forward to the current epoch.
type replicaMutation struct {
	add    *AddAdRequest
	remove *RemoveAdRequest
	epoch  uint64 // epoch after applying
}

// NewReplicaSet validates R replicas of one range and fronts them. Every
// reachable replica must agree on slot, cluster size, seed, fingerprints,
// epoch, and campaign; unreachable ones start unhealthy and may be revived
// later by Probe. At least one replica must be reachable. ctx bounds the
// validation probes.
func NewReplicaSet(ctx context.Context, replicas []Client, cfg ReplicaSetConfig) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, errors.New("shard: replica set needs at least one replica")
	}
	r := &ReplicaSet{
		replicas: replicas,
		slot:     cfg.Slot,
		metrics:  cfg.Metrics,
		logf:     cfg.Logf,
		healthy:  make([]bool, len(replicas)),
		runs:     map[string]*replicaRun{},
	}
	var ref *ShardInfo
	for i, cl := range replicas {
		info, err := cl.Info(ctx)
		if err != nil {
			continue // unreachable: starts unhealthy
		}
		if ref == nil {
			c := info
			ref = &c
			r.slot = info.Shard
		} else if err := replicaAgrees(*ref, info); err != nil {
			return nil, fmt.Errorf("shard: replica %d of range %d: %w", i, r.slot, err)
		}
		r.healthy[i] = true
	}
	if ref == nil {
		return nil, fmt.Errorf("shard: no replica of range %d reachable", cfg.Slot)
	}
	r.publishHealth()
	return r, nil
}

// replicaAgrees checks that two replicas serve the same range of the same
// cluster in the same state.
func replicaAgrees(ref, got ShardInfo) error {
	switch {
	case got.Shard != ref.Shard || got.NumShards != ref.NumShards:
		return fmt.Errorf("serves range %d/%d, set is %d/%d", got.Shard, got.NumShards, ref.Shard, ref.NumShards)
	case got.Seed != ref.Seed:
		return fmt.Errorf("seed %d diverges from %d", got.Seed, ref.Seed)
	case got.Fingerprint != ref.Fingerprint:
		return fmt.Errorf("instance fingerprint %#x diverges from %#x", got.Fingerprint, ref.Fingerprint)
	case got.Dataset != ref.Dataset:
		return fmt.Errorf("dataset %+v diverges from %+v", got.Dataset, ref.Dataset)
	case got.Epoch != ref.Epoch || got.NumAds != ref.NumAds || got.CampaignFingerprint != ref.CampaignFingerprint:
		return fmt.Errorf("campaign (epoch %d, %d ads, fingerprint %#x) diverges from (epoch %d, %d ads, %#x)",
			got.Epoch, got.NumAds, got.CampaignFingerprint, ref.Epoch, ref.NumAds, ref.CampaignFingerprint)
	}
	return nil
}

// Slot returns the partition range this set serves.
func (r *ReplicaSet) Slot() int { return r.slot }

// HealthyCount returns how many replicas are currently marked healthy.
func (r *ReplicaSet) HealthyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.healthy {
		if h {
			n++
		}
	}
	return n
}

// candidates returns replica indices in routing order: healthy ascending
// (index 0 is the preferred replica), then unhealthy ascending — a down
// replica is the last resort, never skipped outright, so the range only
// reports unavailable after every replica actually failed this op. healthy
// is how many of them lead the order.
func (r *ReplicaSet) candidates() (order []int, healthy int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order = make([]int, 0, len(r.replicas))
	for i, h := range r.healthy {
		if h {
			order = append(order, i)
		}
	}
	healthy = len(order)
	for i, h := range r.healthy {
		if !h {
			order = append(order, i)
		}
	}
	return order, healthy
}

// markSuccess restores a replica to healthy.
func (r *ReplicaSet) markSuccess(i int) {
	r.mu.Lock()
	changed := !r.healthy[i]
	r.healthy[i] = true
	r.mu.Unlock()
	if changed {
		r.publishHealth()
		if r.logf != nil {
			r.logf("shard: range %d replica %d back to healthy", r.slot, i)
		}
	}
}

// markFailure marks a replica unhealthy: one failed op is enough.
func (r *ReplicaSet) markFailure(i int, err error) {
	r.mu.Lock()
	changed := r.healthy[i]
	r.healthy[i] = false
	r.mu.Unlock()
	if changed {
		r.publishHealth()
		if r.logf != nil {
			r.logf("shard: range %d replica %d marked unhealthy: %v", r.slot, i, err)
		}
	}
}

// publishHealth refreshes the shard_replica_healthy gauge.
func (r *ReplicaSet) publishHealth() {
	if r.metrics == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, h := range r.healthy {
		v := 0.0
		if h {
			v = 1
		}
		r.metrics.replicaHealthy.With(strconv.Itoa(r.slot), strconv.Itoa(i)).Set(v)
	}
}

// notifyFailover books one failover on the range: metric, log line, and —
// when the request carries a span — a "failover" event that flags the
// whole trace for tail-retention (a request that changed replicas is
// always worth keeping).
func (r *ReplicaSet) notifyFailover(ctx context.Context, from, to int) {
	if r.metrics != nil {
		r.metrics.failovers.With(strconv.Itoa(r.slot)).Inc()
	}
	if r.logf != nil {
		r.logf("shard: range %d failed over from replica %d to %d", r.slot, from, to)
	}
	if span := obs.ContextSpan(ctx); span != nil {
		span.Event("failover",
			obs.Int("range", int64(r.slot)),
			obs.Int("from", int64(from)),
			obs.Int("to", int64(to)))
		span.Retain(obs.RetainFailover)
	}
}

// unavailable wraps the range's total failure.
func (r *ReplicaSet) unavailable(last error) error {
	return fmt.Errorf("%w: range %d: last error: %v", ErrPartitionUnavailable, r.slot, last)
}

// sweep runs fn against candidates in routing order until one succeeds.
// Terminal failures propagate immediately (the request is the problem, not
// the replica); other failures mark the replica and move on.
func (r *ReplicaSet) sweep(ctx context.Context, fn func(i int, cl Client) error) error {
	var lastErr error
	order, _ := r.candidates()
	first := order[0]
	for _, i := range order {
		err := fn(i, r.replicas[i])
		if err == nil {
			r.markSuccess(i)
			if i != first {
				r.notifyFailover(ctx, first, i)
			}
			return nil
		}
		if Classify(err) == ClassTerminal {
			return err
		}
		r.markFailure(i, err)
		lastErr = err
	}
	return r.unavailable(lastErr)
}

// Info implements Client: the canonical view of the range, served by the
// first answering replica.
func (r *ReplicaSet) Info(ctx context.Context) (ShardInfo, error) {
	var out ShardInfo
	err := r.sweep(ctx, func(_ int, cl Client) error {
		var err error
		out, err = cl.Info(ctx)
		return err
	})
	return out, err
}

// Pilot implements Client. Pilots are stateless and deterministic — any
// replica answers identically (sampling accounting aside), growing its own
// sample lazily as needed.
func (r *ReplicaSet) Pilot(ctx context.Context, req PilotRequest) (PilotReply, error) {
	var out PilotReply
	err := r.sweep(ctx, func(_ int, cl Client) error {
		var err error
		out, err = cl.Pilot(ctx, req)
		return err
	})
	return out, err
}

// Ensure implements Client. Warm-up is best spread to every healthy
// replica — a failover target that presampled serves its first run
// without a cold sampling burst — but only the canonical (first
// answering) reply's accounting is reported. Once that reply is in hand
// another replica's failure is that replica's own, and the unhealthy ones
// (a replica that missed a mutation answers ErrStaleEpoch until Probe
// revives it) are asked only when no healthy replica answered.
func (r *ReplicaSet) Ensure(ctx context.Context, req EnsureRequest) (EnsureReply, error) {
	var out EnsureReply
	got := false
	var lastErr error
	order, healthy := r.candidates()
	for n, i := range order {
		if got && n >= healthy {
			break
		}
		reply, err := r.replicas[i].Ensure(ctx, req)
		if err != nil {
			if !got && Classify(err) == ClassTerminal {
				return EnsureReply{}, err
			}
			r.markFailure(i, err)
			lastErr = err
			continue
		}
		r.markSuccess(i)
		if !got {
			out, got = reply, true
		}
	}
	if !got {
		return EnsureReply{}, r.unavailable(lastErr)
	}
	return out, nil
}

// Start implements Client: it opens the run on one replica (the run's
// owner) and logs the request for failover replays.
func (r *ReplicaSet) Start(ctx context.Context, req StartRequest) (StartReply, error) {
	run := &replicaRun{start: req}
	var out StartReply
	err := r.sweep(ctx, func(i int, cl Client) error {
		reply, err := cl.Start(ctx, req)
		if err != nil {
			return err
		}
		out = reply
		run.owner = i
		return nil
	})
	if err != nil {
		return StartReply{}, err
	}
	r.mu.Lock()
	r.runs[req.RunID] = run
	r.mu.Unlock()
	return out, nil
}

// adopt rebuilds a run on cl — End (clear any stale state), Start from the
// logged request, replay the logged ops in order. The deterministic stream
// makes the rebuilt state byte-identical to the lost one, and the sequence
// guard makes any op the replica had already applied a cached no-op.
func adopt(ctx context.Context, cl Client, start StartRequest, ops []repOp) error {
	cl.End(ctx, start.RunID)
	if _, err := cl.Start(ctx, start); err != nil {
		return err
	}
	for _, o := range ops {
		if err := o.replay(ctx, cl); err != nil {
			return err
		}
	}
	return nil
}

// runOp is the failover routine of every op that needs a run's state. A
// sequenced op (logged non-nil) joins the run's log first. do then runs on
// the owner; if that fails, each candidate in routing order adopts the run
// — everything logged before this op — and runs do itself, and the first
// to succeed becomes the owner.
func (r *ReplicaSet) runOp(ctx context.Context, runID string, logged *repOp, do func(cl Client) error) error {
	r.mu.Lock()
	run, ok := r.runs[runID]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRun, runID)
	}
	prior := run.ops
	if logged != nil {
		run.ops = append(run.ops, *logged)
	}
	owner := run.owner
	err := do(r.replicas[owner])
	if err == nil {
		r.markSuccess(owner)
		return nil
	}
	if Classify(err) == ClassTerminal {
		return err
	}
	ownerRetryable := Classify(err) == ClassRetryable
	if ownerRetryable {
		// Connectivity-style failure (retries already exhausted below us):
		// the replica is suspect. Failover-class errors (unknown run, bad
		// seq) leave health alone — the replica is up, just out of sync,
		// and adoption below may land right back on it.
		r.markFailure(owner, err)
	}
	lastErr := err
	order, _ := r.candidates()
	for _, i := range order {
		if i == owner && ownerRetryable {
			continue
		}
		err := adopt(ctx, r.replicas[i], run.start, prior)
		if err == nil {
			err = do(r.replicas[i])
		}
		if err == nil {
			r.markSuccess(i)
			if i != owner {
				r.notifyFailover(ctx, owner, i)
				run.owner = i
			}
			return nil
		}
		if Classify(err) == ClassTerminal {
			return err
		}
		r.markFailure(i, err)
		lastErr = err
	}
	return r.unavailable(lastErr)
}

// Commit implements Client: the op is logged under the sequence number the
// caller gave it and executed with failover.
func (r *ReplicaSet) Commit(ctx context.Context, req CommitRequest) (CommitReply, error) {
	var out CommitReply
	err := r.runOp(ctx, req.RunID, &repOp{kind: opCommit, commit: req}, func(cl Client) (err error) {
		out, err = cl.Commit(ctx, req)
		return err
	})
	return out, err
}

// Credit implements Client.
func (r *ReplicaSet) Credit(ctx context.Context, req CreditRequest) (CommitReply, error) {
	var out CommitReply
	err := r.runOp(ctx, req.RunID, &repOp{kind: opCredit, credit: req}, func(cl Client) (err error) {
		out, err = cl.Credit(ctx, req)
		return err
	})
	return out, err
}

// Grow implements Client.
func (r *ReplicaSet) Grow(ctx context.Context, req GrowRequest) (GrowReply, error) {
	var out GrowReply
	err := r.runOp(ctx, req.RunID, &repOp{kind: opGrow, grow: req}, func(cl Client) (err error) {
		out, err = cl.Grow(ctx, req)
		return err
	})
	return out, err
}

// Gains implements Client: read-only, so nothing is logged.
func (r *ReplicaSet) Gains(ctx context.Context, req GainsRequest) (GainsReply, error) {
	var out GainsReply
	err := r.runOp(ctx, req.RunID, nil, func(cl Client) (err error) {
		out, err = cl.Gains(ctx, req)
		return err
	})
	return out, err
}

// End implements Client: the op log is dropped and the run closed on every
// healthy replica (a dead replica's copy is reaped by the shard's own run
// TTL — waiting out its timeouts here would stall the caller).
func (r *ReplicaSet) End(ctx context.Context, runID string) error {
	r.mu.Lock()
	delete(r.runs, runID)
	healthy := append([]bool(nil), r.healthy...)
	r.mu.Unlock()
	var lastErr error
	ok := false
	for i, cl := range r.replicas {
		if !healthy[i] {
			continue
		}
		if err := cl.End(ctx, runID); err != nil {
			lastErr = err
		} else {
			ok = true
		}
	}
	if ok || lastErr == nil {
		return nil
	}
	return lastErr
}

// broadcastMutation applies one campaign mutation to every healthy replica
// in lockstep and logs it for revives. Replicas that fail (or disagree
// with the first successful reply) are marked unhealthy and walked forward
// by Probe; the mutation fails only when no replica accepted it.
func (r *ReplicaSet) broadcastMutation(ctx context.Context, mut replicaMutation, call func(cl Client) (MutateReply, error)) (MutateReply, error) {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	var reply MutateReply
	applied := false
	var lastErr error
	order, _ := r.candidates()
	for _, i := range order {
		rep, err := call(r.replicas[i])
		if err != nil {
			r.markFailure(i, err)
			lastErr = err
			continue
		}
		if !applied {
			reply, applied = rep, true
			r.markSuccess(i)
			continue
		}
		if rep != reply {
			r.markFailure(i, fmt.Errorf("mutation reply %+v diverges from %+v", rep, reply))
			continue
		}
		r.markSuccess(i)
	}
	if !applied {
		if lastErr != nil && Classify(lastErr) == ClassTerminal {
			return MutateReply{}, lastErr
		}
		return MutateReply{}, r.unavailable(lastErr)
	}
	mut.epoch = reply.Epoch
	r.mu.Lock()
	r.muts = append(r.muts, mut)
	r.mu.Unlock()
	return reply, nil
}

// AddAd implements Client.
func (r *ReplicaSet) AddAd(ctx context.Context, req AddAdRequest) (MutateReply, error) {
	return r.broadcastMutation(ctx, replicaMutation{add: &req}, func(cl Client) (MutateReply, error) {
		return cl.AddAd(ctx, req)
	})
}

// RemoveAd implements Client.
func (r *ReplicaSet) RemoveAd(ctx context.Context, req RemoveAdRequest) (MutateReply, error) {
	return r.broadcastMutation(ctx, replicaMutation{remove: &req}, func(cl Client) (MutateReply, error) {
		return cl.RemoveAd(ctx, req)
	})
}

// SyncEstimates implements Client: the snapshot broadcasts to every
// healthy replica and is kept for revives. Sync succeeds if any replica
// accepted — the estimator is monotone (shards ignore stale Events), so a
// replica that missed a snapshot heals on the next broadcast or revive.
func (r *ReplicaSet) SyncEstimates(ctx context.Context, req SyncEstimatesRequest) error {
	r.mu.Lock()
	r.est = &req
	healthy := append([]bool(nil), r.healthy...)
	r.mu.Unlock()
	var lastErr error
	ok := false
	for i, cl := range r.replicas {
		if !healthy[i] {
			continue
		}
		if err := cl.SyncEstimates(ctx, req); err != nil {
			r.markFailure(i, err)
			lastErr = err
		} else {
			r.markSuccess(i)
			ok = true
		}
	}
	if ok {
		return nil
	}
	return r.unavailable(lastErr)
}

// ReplicaStatus is one replica's health line, as reported by Probe.
type ReplicaStatus struct {
	// Replica is the index within the set.
	Replica int
	// Healthy reports whether the replica is in the routing rotation.
	Healthy bool
	// Reachable reports whether this probe's Info succeeded.
	Reachable bool
	// Info is the probe result (zero when unreachable).
	Info ShardInfo
	// Err is the probe failure, if any.
	Err error
}

// Probe checks every replica's health with one Info round and revives
// unhealthy replicas that check out: the replica must be the same process
// identity (range, seed, instance fingerprint), is walked forward through
// any campaign mutations it missed, gets the latest estimator snapshot,
// and must then match a healthy reference exactly. Call it periodically
// (the serve layer's prober) or on demand (/healthz).
func (r *ReplicaSet) Probe(ctx context.Context) []ReplicaStatus {
	out := make([]ReplicaStatus, len(r.replicas))
	infos := make([]*ShardInfo, len(r.replicas))
	for i, cl := range r.replicas {
		info, err := cl.Info(ctx)
		out[i] = ReplicaStatus{Replica: i, Reachable: err == nil, Err: err}
		if err == nil {
			out[i].Info = info
			infos[i] = &info
		}
	}
	// Reference: the first reachable replica that is currently healthy.
	r.mu.Lock()
	healthy := append([]bool(nil), r.healthy...)
	r.mu.Unlock()
	var ref *ShardInfo
	for i := range r.replicas {
		if healthy[i] && infos[i] != nil {
			ref = infos[i]
			break
		}
	}
	for i := range r.replicas {
		switch {
		case infos[i] == nil:
			r.markFailure(i, out[i].Err)
		case healthy[i]:
			r.markSuccess(i)
		case ref == nil:
			// No healthy reference to validate against; leave as is.
		default:
			if err := r.revive(ctx, i, *infos[i], *ref); err != nil {
				out[i].Err = err
				if r.logf != nil {
					r.logf("shard: range %d replica %d not revivable yet: %v", r.slot, i, err)
				}
			}
		}
	}
	r.mu.Lock()
	for i := range out {
		out[i].Healthy = r.healthy[i]
	}
	r.mu.Unlock()
	return out
}

// revive walks an unhealthy-but-reachable replica forward to the
// reference state and returns it to the rotation.
func (r *ReplicaSet) revive(ctx context.Context, i int, got, ref ShardInfo) error {
	if got.Shard != ref.Shard || got.NumShards != ref.NumShards || got.Seed != ref.Seed || got.Fingerprint != ref.Fingerprint {
		return fmt.Errorf("shard: replica %d is not an instance of range %d (range %d/%d seed %d fp %#x, want %d/%d seed %d fp %#x)",
			i, r.slot, got.Shard, got.NumShards, got.Seed, got.Fingerprint, ref.Shard, ref.NumShards, ref.Seed, ref.Fingerprint)
	}
	cl := r.replicas[i]
	if got.Epoch < ref.Epoch {
		r.mu.Lock()
		muts := append([]replicaMutation(nil), r.muts...)
		r.mu.Unlock()
		for _, mut := range muts {
			if mut.epoch <= got.Epoch {
				continue
			}
			var err error
			switch {
			case mut.add != nil:
				_, err = cl.AddAd(ctx, *mut.add)
			case mut.remove != nil:
				_, err = cl.RemoveAd(ctx, *mut.remove)
			}
			if err != nil {
				return fmt.Errorf("shard: replaying mutation to epoch %d on replica %d: %w", mut.epoch, i, err)
			}
		}
		var err error
		if got, err = cl.Info(ctx); err != nil {
			return err
		}
	}
	if err := replicaAgrees(ref, got); err != nil {
		return fmt.Errorf("shard: replica %d still diverges after replay: %w", i, err)
	}
	r.mu.Lock()
	est := r.est
	r.mu.Unlock()
	if est != nil {
		if err := cl.SyncEstimates(ctx, *est); err != nil {
			return fmt.Errorf("shard: re-syncing estimator on replica %d: %w", i, err)
		}
	}
	r.markSuccess(i)
	if r.logf != nil {
		r.logf("shard: range %d replica %d revived at epoch %d", r.slot, i, got.Epoch)
	}
	return nil
}

// Interface compliance.
var _ Client = (*ReplicaSet)(nil)
