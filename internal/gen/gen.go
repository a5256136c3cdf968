// Package gen builds synthetic analogues of the paper's four evaluation
// datasets (Table 1). The real datasets (Flixster ratings with learned TIC
// probabilities, Epinions, SNAP DBLP and LiveJournal) are not
// redistributable in this offline build, so each generator reproduces the
// structural properties the experiments exercise — degree distributions,
// probability regimes, topical separation, budget/CPE ranges — at a
// configurable scale. DESIGN.md §4 documents why each substitution
// preserves the paper's behaviour.
//
// All generators are deterministic functions of (Options.Seed, scale),
// whatever the number of workers that draw them (topics.go).
package gen

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// Options controls dataset generation.
type Options struct {
	// Seed drives every random choice. Same seed ⇒ identical instance.
	Seed uint64
	// Scale multiplies the paper-scale node count (1.0 = paper size).
	// Budgets scale along with it so the regret shapes are preserved.
	// Default 0.1.
	Scale float64
	// NumAds overrides the number of advertisers (default: dataset value,
	// 10 for the quality datasets, 5 for the scalability ones).
	NumAds int
	// BudgetOverride sets every advertiser's budget (pre-scaling); 0 keeps
	// the dataset's randomized budgets. The Fig. 6 budget sweeps use this.
	BudgetOverride float64
	// Kappa sets the uniform attention bound (default 1).
	Kappa int
	// Lambda sets the seed penalty (default 0).
	Lambda float64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if o.Kappa <= 0 {
		o.Kappa = 1
	}
	return o
}

// scaled returns max(min, round(base·scale)).
func scaled(base int, scale float64, min int) int {
	v := int(math.Round(float64(base) * scale))
	if v < min {
		v = min
	}
	return v
}

// powerLawDigraph samples a directed Chung-Lu style graph: endpoints are
// drawn from two independent power-law weight vectors (exponents betaOut /
// betaIn) whose node assignment is shuffled, so high out-degree and high
// in-degree hubs are distinct. Duplicate draws and self-loops are discarded
// by the builder, so the realized edge count is slightly below targetM.
func powerLawDigraph(n, targetM int, betaOut, betaIn float64, r *xrand.Rand) *graph.Graph {
	wOut := permuteWeights(xrand.PowerLawWeights(n, betaOut), r.Split(1))
	wIn := permuteWeights(xrand.PowerLawWeights(n, betaIn), r.Split(2))
	aOut := xrand.NewAlias(wOut)
	aIn := xrand.NewAlias(wIn)
	// Oversample slightly to compensate for duplicates/self-loops.
	attempts := targetM + targetM/8
	b := graph.NewBuilderHint(n, attempts)
	draw := r.Split(3)
	for i := 0; i < attempts; i++ {
		u := int32(aOut.Sample(draw))
		v := int32(aIn.Sample(draw))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// communityGraph samples an undirected community-structured graph (the
// DBLP analogue): nodes are partitioned into small commSize communities
// (co-author groups), and each edge is intra-community with probability
// pIntra, otherwise a uniform random long-range link. Both directions are
// added, per the paper ("we direct all edges in both directions").
//
// The small, dense communities give the graph the high clustering of real
// co-authorship networks. This matters for the Weighted-Cascade
// experiments: WC is branching-critical on any graph (each node expects
// exactly one incoming activation), and what keeps real-graph spreads
// small — the paper's ~21 expected clicks per seed on DBLP — is clustering:
// overlapping neighborhoods burn out cascades. A globally-mixed generator
// produces a percolating core whose single-node spread exceeds the scaled
// budgets (making the empty allocation optimal, the §4.1 pathology), so
// community structure here is a behavioural requirement, not cosmetics.
func communityGraph(n, targetUndirected, commSize int, pIntra float64, r *xrand.Rand) *graph.Graph {
	if commSize < 2 {
		commSize = 2
	}
	attempts := targetUndirected + targetUndirected/8
	b := graph.NewBuilderPairHint(n, attempts)
	draw := r.Split(5)
	numComm := (n + commSize - 1) / commSize
	for i := 0; i < attempts; i++ {
		var u, v int32
		if draw.Bernoulli(pIntra) {
			c := draw.IntN(numComm)
			lo := c * commSize
			hi := lo + commSize
			if hi > n {
				hi = n
			}
			u = int32(lo + draw.IntN(hi-lo))
			v = int32(lo + draw.IntN(hi-lo))
		} else {
			u = int32(draw.IntN(n))
			v = int32(draw.IntN(n))
		}
		if u != v {
			b.AddUndirected(u, v)
		}
	}
	return b.MustBuild()
}

// communityDigraph is the directed analogue used for LIVEJOURNAL: small
// communities with directed intra-community follow edges plus a mild
// power-law tail of long-range follows. The tail exponent is kept high
// (3.0) deliberately: heavy out-degree hubs would make a single seed's
// Weighted-Cascade spread comparable to the scaled budgets, recreating the
// §4.1 pathology where the empty allocation is optimal (see communityGraph).
func communityDigraph(n, targetM, commSize int, pIntra float64, r *xrand.Rand) *graph.Graph {
	if commSize < 2 {
		commSize = 2
	}
	wOut := permuteWeights(xrand.PowerLawWeights(n, 3.0), r.Split(6))
	aOut := xrand.NewAlias(wOut)
	attempts := targetM + targetM/8
	b := graph.NewBuilderHint(n, attempts)
	draw := r.Split(7)
	numComm := (n + commSize - 1) / commSize
	for i := 0; i < attempts; i++ {
		var u, v int32
		if draw.Bernoulli(pIntra) {
			c := draw.IntN(numComm)
			lo := c * commSize
			hi := lo + commSize
			if hi > n {
				hi = n
			}
			u = int32(lo + draw.IntN(hi-lo))
			v = int32(lo + draw.IntN(hi-lo))
		} else {
			u = int32(aOut.Sample(draw))
			v = int32(draw.IntN(n))
		}
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

func permuteWeights(w []float64, r *xrand.Rand) []float64 {
	out := make([]float64, len(w))
	perm := r.Perm(len(w))
	for i, p := range perm {
		out[p] = w[i]
	}
	return out
}

// weightedCascade returns the Weighted-Cascade probabilities of Chen et
// al. [7] used by the scalability datasets: p_{u,v} = 1/indeg(v) for every
// ad.
func weightedCascade(g *graph.Graph) []float32 {
	probs := make([]float32, g.M())
	for u := int32(0); u < int32(g.N()); u++ {
		targets, first := g.OutEdges(u)
		for i, v := range targets {
			probs[first+int64(i)] = float32(1) / float32(g.InDegree(v))
		}
	}
	return probs
}

// uniformCTPs draws per-user CTPs from U[lo, hi) ("in keeping with
// real-life CTPs", §6: [0.01, 0.03]).
func uniformCTPs(n int, lo, hi float64, r *xrand.Rand) topic.VecCTP {
	c := make([]float32, n)
	for u := range c {
		c[u] = float32(r.Uniform(lo, hi))
	}
	v, err := topic.NewVecCTP(c)
	if err != nil {
		panic(err)
	}
	return v
}

// makeAds assembles one ad per probability vector (probs[i] is ad i's
// mixed edge probabilities), with randomized budgets/CPEs and per-ad CTPs.
func makeAds(probs [][]float32, o Options,
	budgetLo, budgetHi, cpeLo, cpeHi float64, ctp func(i int) topic.CTP, r *xrand.Rand) []core.Ad {
	ads := make([]core.Ad, len(probs))
	for i := range ads {
		budget := r.Uniform(budgetLo, budgetHi) * o.Scale
		if o.BudgetOverride > 0 {
			budget = o.BudgetOverride * o.Scale
		}
		if budget < 1 {
			budget = 1
		}
		ads[i] = core.Ad{
			Name:   fmt.Sprintf("ad%02d", i),
			Budget: budget,
			CPE:    r.Uniform(cpeLo, cpeHi),
			Params: topic.ItemParams{Probs: probs[i], CTPs: ctp(i)},
		}
	}
	return ads
}
