// Replica sets: R interchangeable shards serving one partition range. A
// ReplicaSet is itself a Client, so the coordinator is replication-blind —
// it sees K clients exactly as before, while each of them routes to a
// preferred replica and fails over on error.
//
// The correctness invariant is the partition determinism the golden tests
// pin: replicas of the same (seed, range) derive identical RR-set streams,
// so every integer protocol reply is replica-independent. Run *state*
// (per-run coverage collections) lives on whichever replica answered Start,
// and the set keeps none of it: every later op of the run goes to the
// preferred replica, and a run that op cannot reach — its replica died,
// restarted or reaped it, or the preference moved — fails. The coordinator
// then re-runs it from scratch under a fresh run id (Coordinator.Allocate),
// which the invariant makes byte-identical.
//
// Campaign mutations broadcast to every healthy replica in lockstep; a
// replica that misses one is marked unhealthy and walked forward by Probe —
// epoch-bridging mutation replay — before rejoining.

package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	typedClient // every op through roundTrip

	replicas []Client
	slot     int
	metrics  *Metrics
	logf     func(format string, args ...any)

	mutMu sync.Mutex // serializes mutation broadcasts (log order = epoch order)

	mu sync.Mutex
	// healthy[i] is false from replica i's first failed op (bar a run op's
	// failover-class failure) until its next successful one. Unhealthy
	// replicas are deprioritized, not abandoned: a sweep that exhausts the
	// healthy replicas still tries them before declaring the range unavailable.
	healthy []bool
	muts    []replicaMutation
}

// replicaMutation is one logged campaign mutation — the op, the request it
// was sent, and the epoch it left the range at — kept so a revived replica
// can be walked forward.
type replicaMutation struct {
	op    op
	req   any
	epoch uint64
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
	}
	r.typedClient = typedClient{r}
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
	case got.Epoch != ref.Epoch || got.NumAds != ref.NumAds || got.CampaignFingerprint != ref.CampaignFingerprint ||
		!slices.Equal(got.Streams, ref.Streams):
		return fmt.Errorf("campaign (epoch %d, %d ads, fingerprint %#x, streams %v) diverges from (epoch %d, %d ads, %#x, %v)",
			got.Epoch, got.NumAds, got.CampaignFingerprint, got.Streams, ref.Epoch, ref.NumAds, ref.CampaignFingerprint, ref.Streams)
	}
	return nil
}

// Slot returns the partition range this set serves.
func (r *ReplicaSet) Slot() int { return r.slot }

// HealthyCount returns how many replicas are currently marked healthy.
func (r *ReplicaSet) HealthyCount() int {
	_, healthy := r.candidates()
	return healthy
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

// preferred returns candidates()[0] — the first healthy replica, else
// replica 0 — without building the order.
func (r *ReplicaSet) preferred() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(slices.Index(r.healthy, true), 0)
}

// mark books one op's outcome on replica i: a success restores it to
// healthy, a failure marks it unhealthy — one failed op is enough.
func (r *ReplicaSet) mark(i int, err error) {
	r.mu.Lock()
	changed := r.healthy[i] != (err == nil)
	r.healthy[i] = err == nil
	r.mu.Unlock()
	if !changed {
		return
	}
	r.publishHealth()
	switch {
	case r.logf == nil:
	case err == nil:
		r.logf("shard: range %d replica %d back to healthy", r.slot, i)
	default:
		r.logf("shard: range %d replica %d marked unhealthy: %v", r.slot, i, err)
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

// notifyFailover books one failover on the range — an op replica from
// failed, and replica to served it (to = -1: nothing did, and the
// coordinator re-runs the op's run): metric, log line, and — when the
// request carries a span — a "failover" event that flags the whole trace
// for tail-retention (a request that changed replicas is always worth
// keeping).
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

// sweep sends one op to candidates in routing order until one succeeds.
// Terminal failures propagate immediately (the request is the problem, not
// the replica); other failures mark the replica and move on.
func (r *ReplicaSet) sweep(ctx context.Context, o op, req, reply any) error {
	var lastErr error
	order, _ := r.candidates()
	first := order[0]
	for _, i := range order {
		err := call(ctx, r.replicas[i], o, req, reply)
		if err == nil {
			r.mark(i, nil)
			if i != first {
				r.notifyFailover(ctx, first, i)
			}
			return nil
		}
		if Classify(err) == ClassTerminal {
			return err
		}
		r.mark(i, err)
		lastErr = err
	}
	return r.unavailable(lastErr)
}

// roundTrip routes one op by its replica rule:
//   - info, pilot and start go to the first replica that answers (sweep):
//     info and pilot are stateless and deterministic, so any replica
//     answers identically (sampling accounting aside), and the replica that
//     answers a Start holds the run — a sweep past failed replicas has
//     marked them, so it is the preferred one now;
//   - commit, credit, grow and gains go to the preferred replica only
//     (runOp);
//   - ensure and end go to every healthy replica (ensure, broadcast);
//   - addAd and removeAd apply to every replica in lockstep (lockstep).
func (r *ReplicaSet) roundTrip(ctx context.Context, o op, req, reply any) error {
	switch o {
	case opInfo, opPilot, opStart:
		return r.sweep(ctx, o, req, reply)
	case opEnsure:
		return r.ensure(ctx, req, reply)
	case opEnd:
		// Health is not booked: a dead replica's copy of the run is reaped
		// by the shard's run TTL.
		if ok, err := r.broadcast(ctx, o, req); !ok {
			return err // nil when no replica is healthy
		}
		return nil
	case opAddAd, opRemoveAd:
		return r.lockstep(ctx, o, req, reply)
	default:
		return r.runOp(ctx, o, req, reply)
	}
}

// ensure presamples on every healthy replica — a failover target that
// presampled serves its first run without a cold sampling burst — and
// reports the first reply. A terminal failure before it ends the op (the
// request is the problem, not the replica). The unhealthy replicas (one that
// missed a mutation answers ErrStaleEpoch until Probe revives it) are asked
// only when no healthy replica answered.
func (r *ReplicaSet) ensure(ctx context.Context, req, reply any) error {
	answered := false
	var lastErr error
	order, healthy := r.candidates()
	for n, i := range order {
		if answered && n >= healthy {
			break
		}
		out := reply
		if answered {
			out = nil
		}
		err := call(ctx, r.replicas[i], opEnsure, req, out)
		if err != nil && !answered && Classify(err) == ClassTerminal {
			return err
		}
		r.mark(i, err)
		lastErr = err // the last failure whenever none answered
		answered = answered || err == nil
	}
	if !answered {
		return r.unavailable(lastErr)
	}
	return nil
}

// broadcast sends one reply-less op to every replica healthy at the call and
// reports whether any accepted it and, when none did, the last failure. It
// books no health.
func (r *ReplicaSet) broadcast(ctx context.Context, o op, req any) (ok bool, lastErr error) {
	order, healthy := r.candidates()
	for _, i := range order[:healthy] {
		err := call(ctx, r.replicas[i], o, req, nil)
		ok, lastErr = ok || err == nil, err
	}
	return ok, lastErr
}

// runOp sends a run op — commit, credit, grow or gains — to the preferred
// replica alone: the one whose Start answered, unless a failure moved the
// preference since (the op then meets ErrUnknownRun). The set keeps no run
// state, so a failed op fails its run and the coordinator re-runs it. A
// retryable failure marks the replica unhealthy — and with none healthy
// left the range is unavailable; a failover-class one (unknown run, bad
// sequence, draining) leaves health as it is.
func (r *ReplicaSet) runOp(ctx context.Context, o op, req, reply any) error {
	i := r.preferred()
	err := call(ctx, r.replicas[i], o, req, reply)
	if err == nil || Classify(err) == ClassTerminal {
		return err
	}
	r.notifyFailover(ctx, i, -1)
	if Classify(err) == ClassRetryable {
		r.mark(i, err)
		if r.HealthyCount() == 0 {
			return r.unavailable(err)
		}
	}
	return err
}

// lockstep applies one campaign mutation to every healthy replica and logs
// it for revives. Replicas that fail (or disagree with the first successful
// reply) are marked unhealthy and walked forward by Probe; the mutation
// fails only when no replica accepted it.
func (r *ReplicaSet) lockstep(ctx context.Context, o op, req, reply any) error {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	var first MutateReply
	applied := false
	var lastErr error
	order, _ := r.candidates()
	for _, i := range order {
		var rep MutateReply
		if err := call(ctx, r.replicas[i], o, req, &rep); err != nil {
			r.mark(i, err)
			lastErr = err
			continue
		}
		if applied && rep != first {
			r.mark(i, fmt.Errorf("mutation reply %+v diverges from %+v", rep, first))
			continue
		}
		first, applied = rep, true
		r.mark(i, nil)
	}
	if !applied {
		if lastErr != nil && Classify(lastErr) == ClassTerminal {
			return lastErr
		}
		return r.unavailable(lastErr)
	}
	r.mu.Lock()
	r.muts = append(r.muts, replicaMutation{o, req, first.Epoch})
	r.mu.Unlock()
	return put(reply, first, nil)
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
// any campaign mutations it missed, and must then match a healthy
// reference exactly. Call it periodically
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
			r.mark(i, out[i].Err)
		case healthy[i]:
			r.mark(i, nil)
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
			if err := call(ctx, cl, mut.op, mut.req, nil); err != nil {
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
	r.mark(i, nil)
	if r.logf != nil {
		r.logf("shard: range %d replica %d revived at epoch %d", r.slot, i, got.Epoch)
	}
	return nil
}
