// The cluster backend: core's greedy loop run over coverage that lives on
// K shards. Each active ad's sample lives whole on its owner, and the
// coordinator mirrors its residual coverage in one counter-mode
// rrset.Collection; every core.Coverage operation that changes or extends
// it is one round (coordinator.go) to that owner alone, whose integer
// reply is folded into the mirror. The loop, and every float, stays in
// core — what lives here is only what distribution adds: the run id and its
// lifetime on the shards, drift checks on what the shards report, and the
// Verify-mode cross-check. A run's state — the mirrors' arrays, the request
// and reply rows, every reply's buffers — is recycled through the
// coordinator's pool, so a warm run allocates no per-run coverage state.

package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rrset"
)

// clusterBackend is the core.Backend of one run of Coordinator.Allocate.
// It comes from the coordinator's pool (newBackend) and goes back to it in
// end; everything below runID is kept across runs for its buffers.
type clusterBackend struct {
	c     *Coordinator
	m     *mirror // the epoch the run is pinned to
	runID string
	// started is set once a Start went out: the run then has an end round,
	// ends, which addresses endReq to every slot a Start went to.
	started bool
	ends    []any
	endReq  endRequest
	// seq numbers each slot's Commit/Credit/Grow rounds of the run from 1
	// (CommitRequest.Seq): the loop issues them one at a time, so here is
	// where their order is known.
	seq []int64
	ads []clusterAd
	ws  []*rrset.Workspace // ws[i] holds ads[i]'s mirror
	// reqs is the request row of the run's rounds (see one); the rows
	// below it hold their replies, slot by slot, filled in place round after
	// round (see roundTripper). A round's request is built in the run's own
	// request value: no layer keeps a run op's request past its round.
	reqs      []any
	at        [][]int
	startReqs []StartRequest
	starts    []StartReply
	covers    []CommitReply
	grows     []GrowReply
	commitReq CommitRequest
	creditReq CreditRequest
	growReq   GrowRequest
}

// newBackend takes a run's backend from the coordinator's pool, pinned to
// m under a fresh run id.
func (c *Coordinator) newBackend(m *mirror) *clusterBackend {
	b := c.backends.Get().(*clusterBackend)
	k := len(c.clients)
	b.c, b.m, b.started = c, m, false
	b.runID = fmt.Sprintf("%s-%d", c.id, c.runSeq.Add(1))
	b.endReq.RunID = b.runID
	b.ends, b.seq, b.reqs = resized(b.ends, k), resized(b.seq, k), resized(b.reqs, k)
	clear(b.ends)
	clear(b.seq)
	clear(b.reqs)
	b.at, b.startReqs = resized(b.at, k), resized(b.startReqs, k)
	b.starts, b.covers, b.grows = resized(b.starts, k), resized(b.covers, k), resized(b.grows, k)
	return b
}

// clusterAd is one ad's core.Coverage over the cluster.
type clusterAd struct {
	b      *clusterBackend
	j      int
	slot   int               // the ad's owner
	col    *rrset.Collection // counter mode: the owner's coverage, mirrored
	nodes  []int32
	covs   []int
	scores []float64
}

// end closes the run, best-effort, on every slot a Start went to, and
// puts the backend back in the pool. What it keeps points only into
// itself, so with c and m dropped it holds nothing of the cluster.
func (b *clusterBackend) end() {
	c := b.c
	if b.started {
		gather[struct{}](context.Background(), c, opEnd, b.ends, nil)
	}
	b.c, b.m = nil, nil
	c.backends.Put(b)
}

// Pilot implements core.Backend with one pilot round.
func (b *clusterBackend) Pilot(ctx context.Context, ads []int, want int, out []core.Pilot) (int64, error) {
	return b.c.pilot(ctx, b.m, ads, want, out)
}

// Open implements core.Backend with one start round to the slots that own
// the run's ads: each owner builds its ads' coverage collections and ships
// their initial counts, which seed one counter collection per ad. All
// integers.
func (b *clusterBackend) Open(ctx context.Context, ads, thetas []int, out []core.Coverage) (fresh int64, kernels [rrset.NumKernels]int, err error) {
	c := b.c
	at := b.m.bySlot(ads, b.at)
	for k, is := range at {
		if len(is) == 0 {
			continue
		}
		req := &b.startReqs[k]
		req.RunID, req.Epoch = b.runID, b.m.epoch
		req.Ads, req.Thetas = req.Ads[:0], req.Thetas[:0]
		for _, i := range is {
			req.Ads, req.Thetas = append(req.Ads, ads[i]), append(req.Thetas, thetas[i])
		}
		b.reqs[k], b.ends[k] = req, &b.endReq
	}
	b.started = true
	starts := b.starts
	if err := gather(ctx, c, opStart, b.reqs, starts); err != nil {
		return 0, kernels, wrapEpochErr(err)
	}
	b.ads = resized(b.ads, len(ads))
	for len(b.ws) < len(ads) {
		b.ws = append(b.ws, rrset.NewWorkspace())
	}
	for k, is := range at {
		if len(is) == 0 {
			continue // no Start went there: starts[k] is a past run's
		}
		if len(starts[k].Cov) != len(is) || len(starts[k].LocalSets) != len(is) {
			return 0, kernels, fmt.Errorf("%w: shard %d started %d of %d ads", errDrift, k, min(len(starts[k].Cov), len(starts[k].LocalSets)), len(is))
		}
		for x, i := range is {
			a := &b.ads[i]
			a.b, a.j, a.slot, a.col = b, ads[i], k, b.ws[i].Counter(b.m.inst.G.N())
			sc := starts[k].Cov[x]
			a.col.AddCounts(sc.Nodes, sc.Counts, starts[k].LocalSets[x])
			if x < len(starts[k].Kernels) && int(starts[k].Kernels[x]) < rrset.NumKernels {
				kernels[starts[k].Kernels[x]]++
			}
			if a.col.NumSets() != thetas[i] {
				return 0, kernels, fmt.Errorf("%w: ad %d: shard %d holds %d sets for θ=%d", errDrift, ads[i], k, a.col.NumSets(), thetas[i])
			}
			out[i] = a
		}
		fresh += starts[k].Fresh
	}
	return fresh, kernels, nil
}

// TopNodes implements core.Coverage over the mirrored counters — the same
// heap code, and so the same candidate order, as a single node holding the
// ad's sets. In Verify mode the frontier's gains are read from the owner
// and checked against the mirror.
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

// next returns the next sequence number of the ad's owner.
func (a *clusterAd) next() int64 {
	a.b.seq[a.slot]++
	return a.b.seq[a.slot]
}

// Commit implements core.Coverage with one commit round.
func (a *clusterAd) Commit(ctx context.Context, u int32, delta float64) (float64, error) {
	req := &a.b.commitReq
	*req = CommitRequest{RunID: a.b.runID, Ad: a.j, Node: u, Seq: a.next()}
	covered, err := a.cover(ctx, opCommit, req)
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
	req := &a.b.growReq
	*req = GrowRequest{RunID: a.b.runID, Ad: a.j, FromGlobal: from, ToGlobal: to, Seq: a.next()}
	if err := gather(ctx, a.b.c, opGrow, one(a.b.reqs, a.slot, req), a.b.grows); err != nil {
		return 0, err
	}
	g := &a.b.grows[a.slot]
	if g.LocalSets != to-from {
		return 0, fmt.Errorf("%w: ad %d growth appended %d sets for window %d", errDrift, a.j, g.LocalSets, to-from)
	}
	a.col.AddCounts(g.Added.Nodes, g.Added.Counts, g.LocalSets)
	return g.Fresh, nil
}

// Credit implements core.Coverage with one credit round.
func (a *clusterAd) Credit(ctx context.Context, seed int32, delta float64, boundary int) (float64, error) {
	req := &a.b.creditReq
	*req = CreditRequest{RunID: a.b.runID, Ad: a.j, Node: seed, FromGlobal: boundary, Seq: a.next()}
	covered, err := a.cover(ctx, opCredit, req)
	if err != nil {
		return 0, err
	}
	return delta * float64(covered), nil
}

// cover runs one commit or credit round on the ad's owner, folds its
// decrements into the mirrored counters, and returns the covered count.
func (a *clusterAd) cover(ctx context.Context, o op, req any) (int, error) {
	if err := gather(ctx, a.b.c, o, one(a.b.reqs, a.slot, req), a.b.covers); err != nil {
		return 0, err
	}
	r := &a.b.covers[a.slot]
	a.col.ApplyCover(r.Covered, r.Delta.Nodes, r.Delta.Counts)
	return r.Covered, nil
}

// CoveredMass implements core.Coverage.
func (a *clusterAd) CoveredMass() float64 { return float64(a.col.NumCovered()) }

// NumSets implements core.Coverage.
func (a *clusterAd) NumSets() int { return a.col.NumSets() }

// MemBytes implements core.Coverage.
func (a *clusterAd) MemBytes() int64 { return a.col.MemBytes() }

// verifyGains reads the frontier candidates' marginal gains from the ad's
// owner and checks them against the mirrored counters — the Verify-mode
// drift detector.
func (a *clusterAd) verifyGains(ctx context.Context) error {
	gains := make([]GainsReply, len(a.b.c.clients))
	req := &GainsRequest{RunID: a.b.runID, Ad: a.j, Nodes: a.nodes}
	if err := gather(ctx, a.b.c, opGains, one(a.b.reqs, a.slot, req), gains); err != nil {
		return err
	}
	cov := gains[a.slot].Cov
	if len(cov) != len(a.nodes) {
		return fmt.Errorf("%w: shard %d scored %d of %d candidates", errDrift, a.slot, len(cov), len(a.nodes))
	}
	for i, u := range a.nodes {
		if int(cov[i]) != a.covs[i] {
			return fmt.Errorf("%w: candidate %d has gain %d on shard %d, coordinator holds %d", errDrift, u, cov[i], a.slot, a.covs[i])
		}
	}
	return nil
}
