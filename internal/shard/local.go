package shard

import (
	"context"

	"repro/internal/core"
)

// LocalClient is the in-process transport: it calls a Shard in the same
// address space directly, with zero serialization. Replies may alias
// shard-internal buffers exactly as the Client contract allows.
type LocalClient struct {
	// S is the shard this client fronts.
	S *Shard
}

// Info implements Client.
func (c LocalClient) Info(context.Context) (ShardInfo, error) { return c.S.Info(), nil }

// Pilot implements Client.
func (c LocalClient) Pilot(_ context.Context, req PilotRequest) (PilotReply, error) {
	return c.S.Pilot(req)
}

// Ensure implements Client.
func (c LocalClient) Ensure(_ context.Context, req EnsureRequest) (EnsureReply, error) {
	return c.S.Ensure(req)
}

// Start implements Client.
func (c LocalClient) Start(_ context.Context, req StartRequest) (StartReply, error) {
	return c.S.Start(req)
}

// Commit implements Client.
func (c LocalClient) Commit(_ context.Context, req CommitRequest) (CommitReply, error) {
	return c.S.Commit(req)
}

// Credit implements Client.
func (c LocalClient) Credit(_ context.Context, req CreditRequest) (CommitReply, error) {
	return c.S.Credit(req)
}

// Grow implements Client.
func (c LocalClient) Grow(_ context.Context, req GrowRequest) (GrowReply, error) {
	return c.S.Grow(req)
}

// Gains implements Client.
func (c LocalClient) Gains(_ context.Context, req GainsRequest) (GainsReply, error) {
	return c.S.Gains(req)
}

// End implements Client.
func (c LocalClient) End(_ context.Context, runID string) error {
	c.S.End(runID)
	return nil
}

// AddAd implements Client.
func (c LocalClient) AddAd(_ context.Context, req AddAdRequest) (MutateReply, error) {
	return c.S.AddAd(req)
}

// RemoveAd implements Client.
func (c LocalClient) RemoveAd(_ context.Context, req RemoveAdRequest) (MutateReply, error) {
	return c.S.RemoveAd(req)
}

// SyncEstimates implements Client: it does nothing.
func (LocalClient) SyncEstimates(context.Context, SyncEstimatesRequest) error { return nil }

// NewLocalCluster builds K in-process shards over roster.Ads[:initialAds]
// (0 = all) and a coordinator fronting them — the single-process form of
// the sharded topology, used by internal/sim's lifecycle runs, the golden
// equivalence tests, and the sharded benchmarks.
func NewLocalCluster(roster *core.Instance, initialAds int, seed uint64, k int, cfg Config) (*Coordinator, []*Shard, error) {
	p, err := NewPartitioner(k)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*Shard, k)
	clients := make([]Client, k)
	for i := 0; i < k; i++ {
		s, err := NewShard(roster, initialAds, seed, p.Range(i))
		if err != nil {
			return nil, nil, err
		}
		shards[i] = s
		clients[i] = LocalClient{S: s}
	}
	cfg.Roster = roster
	coord, err := NewCoordinator(context.Background(), clients, cfg)
	if err != nil {
		return nil, nil, err
	}
	return coord, shards, nil
}

// NewReplicaCluster builds K partition ranges with r in-process replicas
// each and a coordinator fronting the K ReplicaSets. wrap, when non-nil,
// decorates each replica's client (slot-major: replica rep of slot) — the
// hook the fault tests and internal/sim's chaos mode use to splice
// FaultClient/RetryClient stacks under the replica layer. The returned
// shards are slot-major: shards[slot*r+rep].
func NewReplicaCluster(roster *core.Instance, initialAds int, seed uint64, k, r int, cfg Config, wrap func(slot, rep int, cl Client) Client) (*Coordinator, []*ReplicaSet, []*Shard, error) {
	if r <= 0 {
		r = 1
	}
	p, err := NewPartitioner(k)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := context.Background()
	shards := make([]*Shard, 0, k*r)
	sets := make([]*ReplicaSet, k)
	clients := make([]Client, k)
	for slot := 0; slot < k; slot++ {
		reps := make([]Client, r)
		for rep := 0; rep < r; rep++ {
			s, err := NewShard(roster, initialAds, seed, p.Range(slot))
			if err != nil {
				return nil, nil, nil, err
			}
			shards = append(shards, s)
			var cl Client = LocalClient{S: s}
			if wrap != nil {
				cl = wrap(slot, rep, cl)
			}
			reps[rep] = cl
		}
		set, err := NewReplicaSet(ctx, reps, ReplicaSetConfig{Slot: slot, Metrics: cfg.Metrics, Logf: cfg.Logf})
		if err != nil {
			return nil, nil, nil, err
		}
		sets[slot] = set
		clients[slot] = set
	}
	cfg.Roster = roster
	coord, err := NewCoordinator(ctx, clients, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return coord, sets, shards, nil
}
