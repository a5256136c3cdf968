package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// randomInstance builds a small random TIC-CTP instance (the shape of
// core's test generator): uniform random edges with probabilities in
// [0, 0.4), per-ad random CTP vectors, budgets and CPEs. Budgets are large
// against one seed's revenue, so ads need many seeds and revise s_i. Ads
// 0 and 1 draw their own vectors and ad 2 shares ad 1's — two owners and a
// shared sample — and so on in threes.
func randomInstance(r *xrand.Rand, n, edges, h, kappa int, lambda float64) *core.Instance {
	b := graph.NewBuilderHint(n, edges)
	for i := 0; i < edges; i++ {
		if u, v := int32(r.IntN(n)), int32(r.IntN(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	var probs []float32
	ads := make([]core.Ad, h)
	for i := range ads {
		if i%3 != 2 {
			probs = make([]float32, g.M())
			for e := range probs {
				probs[e] = float32(r.Uniform(0, 0.4))
			}
		}
		ctps := make([]float32, n)
		for u := range ctps {
			ctps[u] = float32(r.Uniform(0.05, 0.5))
		}
		vc, _ := topic.NewVecCTP(ctps)
		ads[i] = core.Ad{
			Name:   string(rune('a' + i)),
			Budget: r.Uniform(5, 40),
			CPE:    r.Uniform(0.5, 2),
			Params: topic.ItemParams{Probs: probs, CTPs: vc},
		}
	}
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(kappa), Lambda: lambda}
}

// randomRequest draws one request shape over an h-ad instance: candidate
// depth, seed cap, budget / CPE / spend vectors (some ads fully spent), an
// ad subset in shuffled order, and λ and κ overrides.
func randomRequest(r *xrand.Rand, h int, opts core.TIRMOptions) core.Request {
	opts.CandidateDepth = 1 + r.IntN(3)
	if r.IntN(3) == 0 {
		opts.MaxSeedsPerAd = 1 + r.IntN(4)
	}
	req := core.Request{Opts: opts}
	vec := func(lo, hi float64) []float64 {
		v := make([]float64, h)
		for j := range v {
			v[j] = r.Uniform(lo, hi)
		}
		return v
	}
	if r.IntN(2) == 0 {
		req.Budgets = vec(3, 50)
	}
	if r.IntN(2) == 0 {
		req.CPEs = vec(0.5, 2)
	}
	if r.IntN(2) == 0 {
		req.SpentBudget = vec(0, 3)
		req.SpentBudget[r.IntN(h)] = 1e9 // fully spent
		if r.IntN(6) == 0 {
			for j := range req.SpentBudget {
				req.SpentBudget[j] = 1e9 // nothing left to allocate
			}
		}
	}
	if r.IntN(2) == 0 {
		req.Ads = r.Perm(h)[:1+r.IntN(h)]
	}
	if r.IntN(3) == 0 {
		lambda := r.Uniform(0, 0.2)
		req.Lambda = &lambda
	}
	if r.IntN(3) == 0 {
		req.Kappa = core.ConstKappa(1 + r.IntN(3))
	}
	return req
}

// explainRecorder keeps the full decision trace of one run.
type explainRecorder struct {
	events []core.CommitEvent
	rounds int
	calls  int
}

func (o *explainRecorder) ObserveAllocation(t core.PhaseTimings) { o.calls++; o.rounds = t.Rounds }
func (o *explainRecorder) ObserveCommit(e core.CommitEvent)      { o.events = append(o.events, e) }

// TestClusterBackendMatchesLocalRandomized pins the backend seam rather
// than one request on one instance: over seeded random instances, shard
// counts and request shapes — on graphs dense enough, under a θ range wide
// enough, that growth and re-crediting fire in a third of the runs — the
// cluster backend and the local backend give the
// one loop the same answers, so results, the explain trace (every commit's
// ad, node, gain and residual, in order) and the observed round count are
// identical. Each (instance, K) pair gets a fresh index and a fresh
// cluster and feeds both the same request sequence, so sampling and reuse
// accounting must agree as the stored samples grow.
func TestClusterBackendMatchesLocalRandomized(t *testing.T) {
	ctx := context.Background()
	opts := core.TIRMOptions{Eps: 1, MinTheta: 256, MaxTheta: 20000}
	recredited, empty := 0, 0
	for inst := uint64(0); inst < 24; inst++ {
		r := xrand.New(1000 + inst)
		n := 30 + r.IntN(50)
		h := 2 + r.IntN(3)
		roster := randomInstance(r, n, n*(4+r.IntN(6)), h, 1+r.IntN(2), r.Uniform(0, 0.05))
		reqs := make([]core.Request, 3)
		for i := range reqs {
			reqs[i] = randomRequest(r, h, opts)
		}
		for k := 1; k <= 3; k++ {
			idx, err := core.BuildIndex(roster, inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			coord, _, err := NewLocalCluster(roster, 0, inst, k, Config{Verify: inst%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Warm(ctx, opts); err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				label := fmt.Sprintf("instance %d K=%d request %d", inst, k, i)
				local, cluster := &explainRecorder{}, &explainRecorder{}
				req.Explain = true
				req.Observer = local
				want, err := core.AllocateFromIndex(idx, req)
				if err != nil {
					t.Fatalf("%s: single node: %v", label, err)
				}
				req.Observer = cluster
				got, err := coord.Allocate(ctx, req)
				if err != nil {
					t.Fatalf("%s: cluster: %v", label, err)
				}
				mustEqualResults(t, label, roster, req, want, got)
				if !reflect.DeepEqual(local.events, cluster.events) {
					t.Fatalf("%s: explain traces diverged\n want %v\n  got %v", label, local.events, cluster.events)
				}
				if local.calls != 1 || cluster.calls != 1 || local.rounds != cluster.rounds || local.rounds != want.Iterations {
					t.Fatalf("%s: observed %d×%d rounds locally, %d×%d on the cluster, result has %d",
						label, local.calls, local.rounds, cluster.calls, cluster.rounds, want.Iterations)
				}
				// Re-crediting recomputes Π from the claimed masses, so an
				// ad's revenue then differs from the sum of its commit gains.
				gains := make([]float64, h)
				for _, e := range local.events {
					gains[e.Ad] += e.Gain
				}
				if !reflect.DeepEqual(gains, want.EstRevenue) {
					recredited++
				}
				if want.Iterations == 0 {
					empty++
				}
			}
		}
	}
	if recredited < 40 || empty == 0 {
		t.Fatalf("%d runs grew θ and re-credited seeds, %d had nothing to allocate: the generator no longer reaches both", recredited, empty)
	}
}
