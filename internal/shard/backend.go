// The cluster backend: core's greedy loop run over coverage that lives on
// K shards. Each active ad is one counter-mode rrset.Collection holding the
// shard-summed residual coverage; every core.Coverage operation that
// changes or extends it is one gather round (coordinator.go) whose integer
// replies are folded in shard order. The loop, and every float, stays in
// core — what lives here is only what distribution adds: the run id and its
// lifetime on the shards, drift checks on what the shards report, and the
// Verify-mode cross-check.

package shard

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rrset"
)

// clusterBackend is the core.Backend of one Coordinator.Allocate call.
type clusterBackend struct {
	c      *Coordinator
	n      int // users in the instance's graph
	epoch  uint64
	runID  string
	opened bool // a Start was sent: some shard may hold the run
	// seq numbers the run's Commit/Credit/Grow rounds from 1, the same
	// number to every shard of a round (CommitRequest.Seq): the loop issues
	// them one at a time, so here is where their order is known.
	seq int64
	ads []clusterAd
	// covers holds one commit or credit round's replies, one per shard.
	covers []CommitReply
}

// clusterAd is one ad's core.Coverage over the cluster.
type clusterAd struct {
	b      *clusterBackend
	j      int
	col    *rrset.Collection // counter mode: shard-summed coverage
	nodes  []int32
	covs   []int
	scores []float64
}

// end closes the run on every shard, best-effort, if one was ever opened.
func (b *clusterBackend) end() {
	if b.opened {
		gather[struct{}](context.Background(), b.c, opEnd, &endRequest{RunID: b.runID}, nil)
	}
}

// Pilot implements core.Backend with one pilot round.
func (b *clusterBackend) Pilot(ctx context.Context, ads []int, want int, out []core.Pilot) (int64, error) {
	return b.c.pilot(ctx, b.epoch, ads, want, out)
}

// Open implements core.Backend with one start round: shards build their
// local coverage collections; the initial counts are summed into one
// counter collection per ad. All integers, applied in shard order.
func (b *clusterBackend) Open(ctx context.Context, ads, thetas []int, out []core.Coverage) (fresh int64, kernels [rrset.NumKernels]int, err error) {
	c := b.c
	starts := make([]StartReply, len(c.clients))
	b.opened = true
	// A ReplicaSet keeps the request for failover replays, so it must not
	// alias the loop's scratch.
	req := &StartRequest{RunID: b.runID, Epoch: b.epoch, Ads: slices.Clone(ads), Thetas: slices.Clone(thetas)}
	if err := gather(ctx, c, opStart, req, starts); err != nil {
		return 0, kernels, wrapEpochErr(err)
	}
	b.ads = make([]clusterAd, len(ads))
	b.covers = make([]CommitReply, len(c.clients))
	for i, j := range ads {
		a := &b.ads[i]
		a.b, a.j, a.col = b, j, rrset.NewCounterCollection(b.n)
		for k := range c.clients {
			sc := starts[k].Cov[i]
			a.col.AddCounts(sc.Nodes, sc.Counts, starts[k].LocalSets[i])
			// A distributed run holds K local collections per ad, and the
			// tally counts each of them (it sums to ads×K, not ads — the
			// density rule may pick different kernels on differently dense
			// slices).
			if i < len(starts[k].Kernels) && int(starts[k].Kernels[i]) < rrset.NumKernels {
				kernels[starts[k].Kernels[i]]++
			}
		}
		if a.col.NumSets() != thetas[i] {
			return 0, kernels, fmt.Errorf("%w: ad %d shards hold %d sets for θ=%d", errDrift, j, a.col.NumSets(), thetas[i])
		}
		out[i] = a
	}
	for k := range c.clients {
		fresh += starts[k].Fresh
	}
	return fresh, kernels, nil
}

// TopNodes implements core.Coverage over the aggregate counters — the same
// heap code, and so the same candidate order, as a single node holding the
// union of the shards' sets. In Verify mode the frontier's per-shard gains
// are gathered and checked against the aggregates.
func (a *clusterAd) TopNodes(ctx context.Context, k int, eligible func(int32) bool) ([]int32, []float64, error) {
	a.nodes, a.covs = a.col.TopNodesInto(k, eligible, a.nodes, a.covs)
	a.scores = a.scores[:0]
	for _, c := range a.covs {
		a.scores = append(a.scores, float64(c))
	}
	if a.b.c.verify && len(a.nodes) > 0 {
		if err := a.verifyGains(ctx); err != nil {
			return nil, nil, err
		}
	}
	return a.nodes, a.scores, nil
}

// Commit implements core.Coverage with one commit round.
func (a *clusterAd) Commit(ctx context.Context, u int32, delta float64) (float64, error) {
	a.b.seq++
	covered, err := a.cover(ctx, opCommit, &CommitRequest{RunID: a.b.runID, Ad: a.j, Node: u, Seq: a.b.seq})
	if err != nil {
		return 0, err
	}
	if a.col.Coverage(u) != 0 {
		return 0, fmt.Errorf("%w: residual coverage of %d nonzero after cluster commit", errDrift, u)
	}
	a.col.Drop(u)
	return delta * float64(covered), nil
}

// Grow implements core.Coverage with one grow round.
func (a *clusterAd) Grow(ctx context.Context, from, to int) (fresh int64, err error) {
	grows := make([]GrowReply, len(a.b.c.clients))
	a.b.seq++
	if err := gather(ctx, a.b.c, opGrow, &GrowRequest{RunID: a.b.runID, Ad: a.j, FromGlobal: from, ToGlobal: to, Seq: a.b.seq}, grows); err != nil {
		return 0, err
	}
	grown := 0
	for _, g := range grows {
		a.col.AddCounts(g.Added.Nodes, g.Added.Counts, g.LocalSets)
		grown += g.LocalSets
		fresh += g.Fresh
	}
	if grown != to-from {
		return 0, fmt.Errorf("%w: ad %d growth appended %d sets for window %d", errDrift, a.j, grown, to-from)
	}
	return fresh, nil
}

// Credit implements core.Coverage with one credit round.
func (a *clusterAd) Credit(ctx context.Context, seed int32, delta float64, boundary int) (float64, error) {
	a.b.seq++
	covered, err := a.cover(ctx, opCredit, &CreditRequest{RunID: a.b.runID, Ad: a.j, Node: seed, FromGlobal: boundary, Seq: a.b.seq})
	if err != nil {
		return 0, err
	}
	return delta * float64(covered), nil
}

// cover runs one commit or credit round, folds every shard's decrements
// into the ad's counters in shard order, and returns the cluster-wide
// covered count.
func (a *clusterAd) cover(ctx context.Context, o op, req any) (int, error) {
	if err := gather(ctx, a.b.c, o, req, a.b.covers); err != nil {
		return 0, err
	}
	covered := 0
	for _, r := range a.b.covers {
		a.col.ApplyCover(r.Covered, r.Delta.Nodes, r.Delta.Counts)
		covered += r.Covered
	}
	return covered, nil
}

// CoveredMass implements core.Coverage.
func (a *clusterAd) CoveredMass() float64 { return float64(a.col.NumCovered()) }

// NumSets implements core.Coverage.
func (a *clusterAd) NumSets() int { return a.col.NumSets() }

// MemBytes implements core.Coverage.
func (a *clusterAd) MemBytes() int64 { return a.col.MemBytes() }

// verifyGains scatter-gathers the frontier candidates' per-shard marginal
// gains and checks their sums against the aggregate counters — the
// Verify-mode drift detector.
func (a *clusterAd) verifyGains(ctx context.Context) error {
	sums := make([]int32, len(a.nodes))
	gains := make([]GainsReply, len(a.b.c.clients))
	if err := gather(ctx, a.b.c, opGains, &GainsRequest{RunID: a.b.runID, Ad: a.j, Nodes: a.nodes}, gains); err != nil {
		return err
	}
	for k := range gains {
		if len(gains[k].Cov) != len(a.nodes) {
			return fmt.Errorf("%w: shard %d scored %d of %d candidates", errDrift, k, len(gains[k].Cov), len(a.nodes))
		}
		for i, g := range gains[k].Cov {
			sums[i] += g
		}
	}
	for i, u := range a.nodes {
		if int(sums[i]) != a.covs[i] {
			return fmt.Errorf("%w: candidate %d gain sums to %d across shards, coordinator holds %d", errDrift, u, sums[i], a.covs[i])
		}
	}
	return nil
}
