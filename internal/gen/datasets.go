package gen

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// Paper-scale dataset parameters (Table 1 / Table 2 / §6.2).
const (
	flixsterNodes = 30000
	flixsterEdges = 425000
	epinionsNodes = 76000
	epinionsEdges = 509000
	dblpNodes     = 317000
	dblpEdgesUndi = 1050000
	ljNodes       = 4800000
	ljEdges       = 69000000

	// QualityAds is h for the quality experiments (§6.1).
	QualityAds = 10
	// QualityTopics is K for the quality experiments.
	QualityTopics = 10
	// ScalabilityAds is the default h for the scalability experiments.
	ScalabilityAds = 5
	// DBLPBudget and LJBudget are the fixed per-ad budgets of Fig. 6(a)/(c).
	DBLPBudget = 5000
	LJBudget   = 80000
)

// Flixster builds the FLIXSTER analogue: a 30K-node (×scale) directed
// power-law graph with K=10 topics. Each edge gets a dominant topic tied to
// its source's "home topic" (standing in for the learned TIC probabilities
// of Barbieri et al. [3], which concentrate an edge's influence in few
// topics) with Exp(0.15)-distributed probability, and Exp(0.01) mass
// elsewhere. Ads use the paper's concentrated topic distributions, CTPs
// ~ U[0.01, 0.03], budgets [200, 600], CPE [5, 6].
func Flixster(o Options) *core.Instance {
	o = o.withDefaults()
	r := xrand.New(o.Seed ^ 0xf11c)
	n := scaled(flixsterNodes, o.Scale, 600)
	m := scaled(flixsterEdges, o.Scale, 8*n)
	g := powerLawDigraph(n, m, 2.1, 2.2, r)

	h := o.NumAds
	if h <= 0 {
		h = QualityAds
	}
	probs := dominantTopicProbs(g, h, QualityTopics, 0.15, 0.01, r.Split(10))
	ctps := func(i int) topic.CTP { return uniformCTPs(g.N(), 0.01, 0.03, r.Split(20+uint64(i))) }
	ads := makeAds(probs, o, 200, 600, 5, 6, ctps, r.Split(30))
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(o.Kappa), Lambda: o.Lambda}
}

// Epinions builds the EPINIONS analogue: a 76K-node (×scale) directed
// power-law graph whose per-topic influence probabilities are all sampled
// from an exponential distribution with mean 1/30 via the inverse transform
// (§6), clamped to [0,1]. Ads borrow the Flixster-style concentrated topic
// distributions; CTPs ~ U[0.01, 0.03]; budgets [100, 350]; CPE [2.5, 6].
func Epinions(o Options) *core.Instance {
	o = o.withDefaults()
	r := xrand.New(o.Seed ^ 0xe919)
	n := scaled(epinionsNodes, o.Scale, 600)
	m := scaled(epinionsEdges, o.Scale, 5*n)
	g := powerLawDigraph(n, m, 2.0, 2.1, r)

	h := o.NumAds
	if h <= 0 {
		h = QualityAds
	}
	probs := exponentialTopicProbs(g, h, QualityTopics, 1.0/30, r.Split(11))
	ctps := func(i int) topic.CTP { return uniformCTPs(g.N(), 0.01, 0.03, r.Split(21+uint64(i))) }
	ads := makeAds(probs, o, 100, 350, 2.5, 6, ctps, r.Split(31))
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(o.Kappa), Lambda: o.Lambda}
}

// DBLP builds the DBLP analogue used by the scalability experiments: a
// community-structured undirected co-authorship graph (317K nodes ×scale)
// with every edge directed both ways, Weighted-Cascade probabilities
// p_{u,v} = 1/indeg(v) identical for every ad (full competition), CPE = 1,
// CTP = 1, per-ad budget 5000 (×scale) unless overridden.
func DBLP(o Options) *core.Instance {
	o = o.withDefaults()
	if o.BudgetOverride <= 0 {
		o.BudgetOverride = DBLPBudget
	}
	r := xrand.New(o.Seed ^ 0xdb19)
	n := scaled(dblpNodes, o.Scale, 600)
	mu := scaled(dblpEdgesUndi, o.Scale, 3*n)
	g := communityGraph(n, mu, 20, 0.97, r)
	return wcInstance(g, o, r)
}

// LiveJournal builds the LIVEJOURNAL analogue: a large directed
// community-structured graph with a power-law tail of long-range follows
// (4.8M nodes ×scale — mind the memory at scale 1), Weighted-Cascade
// probabilities, CPE = CTP = 1, per-ad budget 80000 (×scale) unless
// overridden. See communityGraph for why clustering is load-bearing here.
func LiveJournal(o Options) *core.Instance {
	o = o.withDefaults()
	if o.BudgetOverride <= 0 {
		o.BudgetOverride = LJBudget
	}
	r := xrand.New(o.Seed ^ 0x11fe)
	n := scaled(ljNodes, o.Scale, 600)
	m := scaled(ljEdges, o.Scale, 6*n)
	g := communityDigraph(n, m, 30, 0.9, r)
	return wcInstance(g, o, r)
}

// wcInstance assembles the Weighted-Cascade scalability setting: identical
// probabilities for all ads, unit CPEs and CTPs, fixed budgets, κ = 1 by
// default ("a fully competitive case ... which will stress-test the
// algorithms", §6.2).
func wcInstance(g *graph.Graph, o Options, r *xrand.Rand) *core.Instance {
	h := o.NumAds
	if h <= 0 {
		h = ScalabilityAds
	}
	// One vector for every ad, so that through its identity the ads share
	// one sampler-side transpose in core.Index.
	wc := weightedCascade(g)
	probs := make([][]float32, h)
	for i := range probs {
		probs[i] = wc
	}
	ctps := func(int) topic.CTP { return topic.ConstCTP{Nodes: g.N(), P: 1} }
	ads := makeAds(probs, o, o.BudgetOverride, o.BudgetOverride, 1, 1.0000001, ctps, r.Split(32))
	for i := range ads {
		ads[i].CPE = 1
	}
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(o.Kappa), Lambda: o.Lambda}
}

// Fig1Instance builds the paper's running example (Figure 1): six users,
// four ads a–d with CTPs 0.9/0.8/0.7/0.6, budgets 4/2/2/1, CPE 1, κ_u = 1,
// and the gadget's edge probabilities (identical for all ads).
func Fig1Instance(lambda float64) *core.Instance {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2) // v1 -> v3, p = 0.2
	b.AddEdge(1, 2) // v2 -> v3, p = 0.2
	b.AddEdge(2, 3) // v3 -> v4, p = 0.5
	b.AddEdge(2, 4) // v3 -> v5, p = 0.5
	b.AddEdge(3, 5) // v4 -> v6, p = 0.1
	b.AddEdge(4, 5) // v5 -> v6, p = 0.1
	g := b.MustBuild()
	probs := []float32{0.2, 0.2, 0.5, 0.5, 0.1, 0.1}
	mk := func(name string, budget, ctp float64) core.Ad {
		return core.Ad{
			Name:   name,
			Budget: budget,
			CPE:    1,
			Params: topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: 6, P: ctp}},
		}
	}
	return &core.Instance{
		G: g,
		Ads: []core.Ad{
			mk("a", 4, 0.9),
			mk("b", 2, 0.8),
			mk("c", 2, 0.7),
			mk("d", 1, 0.6),
		},
		Kappa:  core.ConstKappa(1),
		Lambda: lambda,
	}
}

// Fig1AllocationA is the paper's CTP-maximizing allocation (every user to
// ad a); Fig1AllocationB is the virality-aware allocation of Figure 1.
func Fig1AllocationA() *core.Allocation {
	return &core.Allocation{Seeds: [][]int32{{0, 1, 2, 3, 4, 5}, nil, nil, nil}}
}

// Fig1AllocationB returns the paper's allocation B.
func Fig1AllocationB() *core.Allocation {
	return &core.Allocation{Seeds: [][]int32{{0, 1}, {2}, {3, 4}, {5}}}
}
