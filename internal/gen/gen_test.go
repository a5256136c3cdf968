package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func TestFig1InstanceMatchesPaper(t *testing.T) {
	inst := Fig1Instance(0)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.G.N() != 6 || inst.G.M() != 6 {
		t.Fatalf("gadget size %d/%d", inst.G.N(), inst.G.M())
	}
	if inst.TotalBudget() != 9 {
		t.Fatalf("total budget %v", inst.TotalBudget())
	}
	// Regrets of the paper's allocations (Example 1) via exact evaluation.
	regret := func(alloc *core.Allocation) float64 {
		var total float64
		for i, ad := range inst.Ads {
			sim := diffusion.NewSimulator(inst.G, ad.Params)
			rev := ad.CPE * diffusion.ExactSpread(sim, alloc.Seeds[i])
			total += core.RegretTerm(ad.Budget, rev, inst.Lambda, len(alloc.Seeds[i]))
		}
		return total
	}
	if ra := regret(Fig1AllocationA()); math.Abs(ra-6.5440725) > 1e-6 {
		t.Errorf("regret(A) = %.7f", ra)
	}
	if rb := regret(Fig1AllocationB()); math.Abs(rb-2.6997590) > 1e-6 {
		t.Errorf("regret(B) = %.7f", rb)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Flixster(Options{Seed: 11, Scale: 0.02})
	b := Flixster(Options{Seed: 11, Scale: 0.02})
	if a.G.N() != b.G.N() || a.G.M() != b.G.M() {
		t.Fatal("graph size not deterministic")
	}
	for e := int64(0); e < a.G.M(); e += 97 {
		u1, v1 := a.G.EdgeEndpoints(e)
		u2, v2 := b.G.EdgeEndpoints(e)
		if u1 != u2 || v1 != v2 {
			t.Fatal("edges not deterministic")
		}
	}
	for i := range a.Ads {
		if a.Ads[i].Budget != b.Ads[i].Budget || a.Ads[i].CPE != b.Ads[i].CPE {
			t.Fatal("ad parameters not deterministic")
		}
		for e := 0; e < len(a.Ads[i].Params.Probs); e += 101 {
			if a.Ads[i].Params.Probs[e] != b.Ads[i].Params.Probs[e] {
				t.Fatal("mixed probabilities not deterministic")
			}
		}
	}
	c := Flixster(Options{Seed: 12, Scale: 0.02})
	if c.G.M() == a.G.M() && func() bool {
		for e := int64(0); e < a.G.M(); e++ {
			u1, v1 := a.G.EdgeEndpoints(e)
			u2, v2 := c.G.EdgeEndpoints(e)
			if u1 != u2 || v1 != v2 {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestFlixsterShape(t *testing.T) {
	inst := Flixster(Options{Seed: 1, Scale: 0.05})
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Ads) != QualityAds {
		t.Fatalf("ads %d", len(inst.Ads))
	}
	st := inst.G.Stats()
	// Paper ratio: 425K/30K ≈ 14 edges per node; allow generator slack.
	ratio := float64(st.Edges) / float64(st.Nodes)
	if ratio < 8 || ratio > 16 {
		t.Errorf("avg degree %.1f outside Flixster-like range", ratio)
	}
	// Power-law-ish: the max degree must dwarf the average.
	if float64(st.MaxOutDeg) < 5*ratio {
		t.Errorf("max out-degree %d vs avg %.1f: no heavy tail", st.MaxOutDeg, ratio)
	}
	for _, ad := range inst.Ads {
		// Budgets/CPEs in the paper ranges (budget scaled by 0.05).
		if ad.Budget < 200*0.05 || ad.Budget > 600*0.05 {
			t.Errorf("budget %v outside scaled [10,30]", ad.Budget)
		}
		if ad.CPE < 5 || ad.CPE > 6 {
			t.Errorf("CPE %v outside [5,6]", ad.CPE)
		}
		// CTPs in [0.01, 0.03].
		for u := int32(0); u < int32(inst.G.N()); u += 37 {
			d := ad.Params.CTPs.At(u)
			if d < 0.01 || d > 0.03 {
				t.Errorf("CTP %v outside [0.01,0.03]", d)
			}
		}
	}
}

func TestEpinionsShape(t *testing.T) {
	inst := Epinions(Options{Seed: 2, Scale: 0.05})
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mean mixed probability should be near the Exp(1/30) mean ≈ 0.033.
	var sum float64
	var cnt int
	for _, p := range inst.Ads[0].Params.Probs {
		sum += float64(p)
		cnt++
	}
	mean := sum / float64(cnt)
	if mean < 0.02 || mean > 0.05 {
		t.Errorf("mean probability %.4f, want ≈1/30", mean)
	}
	for _, ad := range inst.Ads {
		if ad.CPE < 2.5 || ad.CPE > 6 {
			t.Errorf("CPE %v outside [2.5,6]", ad.CPE)
		}
	}
}

func TestDBLPShape(t *testing.T) {
	inst := DBLP(Options{Seed: 3, Scale: 0.02})
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	g := inst.G
	// Undirected: every edge exists in both directions.
	checked := 0
	for e := int64(0); e < g.M() && checked < 500; e += 7 {
		u, v := g.EdgeEndpoints(e)
		if !g.HasEdge(v, u) {
			t.Fatalf("edge (%d,%d) missing reverse", u, v)
		}
		checked++
	}
	// Weighted cascade: in-edge probabilities of v are all 1/indeg(v).
	for v := int32(0); v < int32(g.N()); v += 53 {
		sources, _ := g.InRow(v)
		if len(sources) == 0 {
			continue
		}
		want := float32(1) / float32(len(sources))
		for _, u := range sources {
			e, ok := g.FindEdge(u, v)
			if !ok {
				t.Fatalf("in-edge %d->%d has no EdgeID", u, v)
			}
			if inst.Ads[0].Params.Probs[e] != want {
				t.Fatalf("WC probability %v, want %v", inst.Ads[0].Params.Probs[e], want)
			}
		}
	}
	// Scalability setting: CPE = CTP = 1, identical budgets.
	for _, ad := range inst.Ads {
		if ad.CPE != 1 {
			t.Errorf("CPE %v, want 1", ad.CPE)
		}
		if ad.Params.CTPs.At(0) != 1 {
			t.Errorf("CTP %v, want 1", ad.Params.CTPs.At(0))
		}
		if ad.Budget != inst.Ads[0].Budget {
			t.Error("budgets differ in scalability setting")
		}
	}
	if len(inst.Ads) != ScalabilityAds {
		t.Errorf("ads %d, want %d", len(inst.Ads), ScalabilityAds)
	}
}

func TestLiveJournalShape(t *testing.T) {
	inst := LiveJournal(Options{Seed: 4, Scale: 0.001})
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	st := inst.G.Stats()
	ratio := float64(st.Edges) / float64(st.Nodes)
	if ratio < 4 {
		t.Errorf("LJ analogue too sparse: %.1f", ratio)
	}
}

func TestBudgetOverrideAndScaling(t *testing.T) {
	inst := DBLP(Options{Seed: 5, Scale: 0.02, BudgetOverride: 30000})
	for _, ad := range inst.Ads {
		if math.Abs(ad.Budget-30000*0.02) > 1e-9 {
			t.Errorf("budget %v, want 600", ad.Budget)
		}
	}
}

func TestNumAdsOverride(t *testing.T) {
	inst := DBLP(Options{Seed: 6, Scale: 0.02, NumAds: 20})
	if len(inst.Ads) != 20 {
		t.Errorf("ads %d, want 20", len(inst.Ads))
	}
}

func TestKappaLambdaOptions(t *testing.T) {
	inst := Flixster(Options{Seed: 7, Scale: 0.02, Kappa: 5, Lambda: 0.5})
	if inst.Kappa.At(0) != 5 {
		t.Errorf("κ = %d", inst.Kappa.At(0))
	}
	if inst.Lambda != 0.5 {
		t.Errorf("λ = %v", inst.Lambda)
	}
}

func TestTopicalSeparation(t *testing.T) {
	// Flixster-like ads with different dominant topics must see different
	// mixed probabilities (topical competition structure).
	inst := Flixster(Options{Seed: 8, Scale: 0.02})
	a, b := inst.Ads[0].Params.Probs, inst.Ads[1].Params.Probs
	var diff float64
	for e := range a {
		diff += math.Abs(float64(a[e] - b[e]))
	}
	if diff/float64(len(a)) < 0.005 {
		t.Errorf("ads 0 and 1 see nearly identical probabilities (mean |Δ| = %v)", diff/float64(len(a)))
	}
}

// TestGeneratorFingerprintsPinned makes generator output a checked
// contract: generatorFingerprint (graph wiring in EdgeID order plus every
// ad's mixed edge probabilities) of each dataset analogue at smoke scale
// equals the constant recorded before graph.Builder's linear-time CSR build
// replaced its comparison sort. A change that moves one of these changes
// every sample, snapshot and golden downstream — re-record only for a
// deliberate generator change, never for a build- or gen-path optimisation.
func TestGeneratorFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *core.Instance
		want uint64
	}{
		{"flixster", Flixster(Options{Seed: 1, Scale: 0.02}), 0x2feb212388901f88},
		{"epinions", Epinions(Options{Seed: 2, Scale: 0.02}), 0x4d63436f426be310},
		{"dblp", DBLP(Options{Seed: 3, Scale: 0.02}), 0xc6c8dbd553e21d17},
		{"livejournal", LiveJournal(Options{Seed: 4, Scale: 0.001}), 0xbc2d06229b75966a},
	} {
		if got := generatorFingerprint(tc.inst); got != tc.want {
			t.Errorf("%s: instance fingerprint %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}

// generatorFingerprint is the FNV-1a (64-bit) stream the pinned constants
// were recorded with, kept here so the pin outlives changes to the
// snapshot's own fingerprint (core.InstanceFingerprint): n, m and the ad
// count as little-endian uint64s, each node's out-degree and targets in
// EdgeID order, then every ad's probability bits, as little-endian uint32s.
func generatorFingerprint(inst *core.Instance) uint64 {
	fh := fnv.New64a()
	le := binary.LittleEndian
	g := inst.G
	buf := le.AppendUint64(nil, uint64(g.N()))
	buf = le.AppendUint64(buf, uint64(g.M()))
	buf = le.AppendUint64(buf, uint64(len(inst.Ads)))
	for u := int32(0); u < int32(g.N()); u++ {
		targets, _ := g.OutEdges(u)
		buf = le.AppendUint32(buf, uint32(len(targets)))
		for _, v := range targets {
			buf = le.AppendUint32(buf, uint32(v))
		}
	}
	for _, ad := range inst.Ads {
		for _, p := range ad.Params.Probs {
			buf = le.AppendUint32(buf, math.Float32bits(p))
		}
	}
	fh.Write(buf)
	return fh.Sum64()
}

// TestLookup resolves every catalog name and alias, in any case, to its own
// entry, and nothing else.
func TestLookup(t *testing.T) {
	for _, d := range Catalog {
		for _, name := range append([]string{d.Name, strings.ToUpper(d.Name)}, d.Aliases...) {
			if got, ok := Lookup(name); !ok || got.Name != d.Name {
				t.Errorf("Lookup(%q) = %q, %v; want %q", name, got.Name, ok, d.Name)
			}
		}
	}
	if got, ok := Lookup("LJ"); !ok || got.Name != "livejournal" {
		t.Errorf("Lookup(LJ) = %q, %v", got.Name, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown dataset resolved")
	}
	if fig1, _ := Lookup("fig1"); fig1.Build(Options{Lambda: 0.1}).Lambda != 0.1 {
		t.Error("fig1 builder ignored Options.Lambda")
	}
}

// referenceFlixster is Flixster as a serial drawer: the whole K×m topic
// model first (referenceDominantTopics), then every ad's topic.Model.Mix
// of it. It is the oracle the parallel draw is held to.
func referenceFlixster(o Options) *core.Instance {
	o = o.withDefaults()
	r := xrand.New(o.Seed ^ 0xf11c)
	n := scaled(flixsterNodes, o.Scale, 600)
	m := scaled(flixsterEdges, o.Scale, 8*n)
	g := powerLawDigraph(n, m, 2.1, 2.2, r)
	model := referenceDominantTopics(g, QualityTopics, 0.15, 0.01, r.Split(10))
	ctps := func(i int) topic.CTP { return uniformCTPs(g.N(), 0.01, 0.03, r.Split(20+uint64(i))) }
	ads := makeAds(referenceMix(model, o.NumAds), o, 200, 600, 5, 6, ctps, r.Split(30))
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(o.Kappa), Lambda: o.Lambda}
}

// referenceEpinions is Epinions as a serial drawer, topic by topic over
// every edge into a topic.Model, then mixed per ad.
func referenceEpinions(o Options) *core.Instance {
	o = o.withDefaults()
	r := xrand.New(o.Seed ^ 0xe919)
	n := scaled(epinionsNodes, o.Scale, 600)
	m := scaled(epinionsEdges, o.Scale, 5*n)
	g := powerLawDigraph(n, m, 2.0, 2.1, r)
	model := topic.NewModel(QualityTopics, g.M())
	pr := r.Split(11)
	for z := 0; z < QualityTopics; z++ {
		for e := int64(0); e < g.M(); e++ {
			model.Set(z, e, float32(pr.ExponentialClamped(1.0/30, 1)))
		}
	}
	ctps := func(i int) topic.CTP { return uniformCTPs(g.N(), 0.01, 0.03, r.Split(21+uint64(i))) }
	ads := makeAds(referenceMix(model, o.NumAds), o, 100, 350, 2.5, 6, ctps, r.Split(31))
	return &core.Instance{G: g, Ads: ads, Kappa: core.ConstKappa(o.Kappa), Lambda: o.Lambda}
}

// referenceDBLP is DBLP built the general way: communityGraph's draws,
// each pair added with AddEdge in both orientations, so that
// graph.Builder takes its directed path.
func referenceDBLP(o Options) *core.Instance {
	o = o.withDefaults()
	if o.BudgetOverride <= 0 {
		o.BudgetOverride = DBLPBudget
	}
	r := xrand.New(o.Seed ^ 0xdb19)
	n := scaled(dblpNodes, o.Scale, 600)
	mu := scaled(dblpEdgesUndi, o.Scale, 3*n)
	const commSize, pIntra = 20, 0.97
	b := graph.NewBuilder(n)
	draw := r.Split(5)
	numComm := (n + commSize - 1) / commSize
	for i := 0; i < mu+mu/8; i++ {
		var u, v int32
		if draw.Bernoulli(pIntra) {
			lo := draw.IntN(numComm) * commSize
			hi := min(lo+commSize, n)
			u = int32(lo + draw.IntN(hi-lo))
			v = int32(lo + draw.IntN(hi-lo))
		} else {
			u = int32(draw.IntN(n))
			v = int32(draw.IntN(n))
		}
		if u != v {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	g := b.MustBuild()
	wc := weightedCascade(g)
	inst := wcInstance(g, o, r)
	for i := range inst.Ads {
		inst.Ads[i].Params.Probs = wc
	}
	return inst
}

// TestDBLPMatchesGeneralBuild holds the DBLP analogue, whose graph takes
// graph.Builder's pairs-only path, to referenceDBLP, array for array,
// in-rows included. Under the race detector the paper-size case is left
// to the plain run.
func TestDBLPMatchesGeneralBuild(t *testing.T) {
	scales := []float64{0.02, 1}
	if raceDetectorOn {
		scales = scales[:1]
	}
	for _, scale := range scales {
		o := Options{Seed: 9, Scale: scale}
		where := fmt.Sprintf("dblp scale %v", scale)
		got, want := DBLP(o), referenceDBLP(o)
		sameInstance(t, where, got, want)
		for v := int32(0); v < int32(got.G.N()); v++ {
			a, afirst := got.G.InRow(v)
			b, bfirst := want.G.InRow(v)
			if !slices.Equal(a, b) || afirst != bfirst {
				t.Fatalf("%s: node %d's in-rows differ", where, v)
			}
		}
	}
}

// referenceMix mixes h ads (QualityAds when h ≤ 0) out of model with the
// concentrated distributions (mass 0.91 on topic i mod K).
func referenceMix(model *topic.Model, h int) [][]float32 {
	if h <= 0 {
		h = QualityAds
	}
	probs := make([][]float32, h)
	for i := range probs {
		probs[i] = model.MustMix(topic.Concentrated(model.K(), i%model.K(), 0.91))
	}
	return probs
}

// referenceDominantTopics draws the FLIXSTER topic model serially, in the
// stream order dominantTopicProbs replays: the home topics, then per edge
// the coin, the reassigned topic and the k exponentials.
func referenceDominantTopics(g *graph.Graph, k int, domMean, offMean float64, r *xrand.Rand) *topic.Model {
	model := topic.NewModel(k, g.M())
	home := make([]int, g.N())
	for u := range home {
		home[u] = r.IntN(k)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		targets, first := g.OutEdges(u)
		for i := range targets {
			e := first + int64(i)
			dom := home[u]
			if r.Bernoulli(0.3) {
				dom = r.IntN(k)
			}
			for z := 0; z < k; z++ {
				mean := offMean
				if z == dom {
					mean = domMean
				}
				model.Set(z, e, float32(r.ExponentialClamped(mean, 1)))
			}
		}
	}
	return model
}

// TestTopicDrawMatchesReference holds the parallel topic draw of Flixster
// and Epinions to the serial oracle: the whole instance — graph, every
// ad's name, budget, CPE, probability and CTP bits, κ and λ — at three
// scales, four ad counts and four worker caps. Under the race detector the
// paper-size case (seconds per instance there) is left to the plain run.
func TestTopicDrawMatchesReference(t *testing.T) {
	defer rrset.SetMaxWorkers(rrset.MaxWorkers())
	scales := []float64{0.02, 0.3, 1}
	if raceDetectorOn {
		scales = scales[:2]
	}
	for _, tc := range []struct {
		name      string
		gen, want func(Options) *core.Instance
	}{
		{"flixster", Flixster, referenceFlixster},
		{"epinions", Epinions, referenceEpinions},
	} {
		for _, scale := range scales {
			for _, ads := range []int{1, 3, 10, 14} {
				o := Options{Seed: 40 + uint64(ads), Scale: scale, NumAds: ads, Kappa: 2, Lambda: 0.25}
				want := tc.want(o)
				for _, workers := range []int{1, 2, 3, 8} {
					rrset.SetMaxWorkers(workers)
					where := fmt.Sprintf("%s scale %v, %d ads, %d workers", tc.name, scale, ads, workers)
					sameInstance(t, where, tc.gen(o), want)
				}
			}
		}
	}
}

// sameInstance fails unless got and want are the same instance bit for bit.
func sameInstance(t *testing.T, where string, got, want *core.Instance) {
	t.Helper()
	g, w := got.G, want.G
	if g.N() != w.N() || g.M() != w.M() || !slices.Equal(g.OutTargets(), w.OutTargets()) {
		t.Fatalf("%s: graphs differ", where)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		if _, a := g.OutEdges(u); func() bool { _, b := w.OutEdges(u); return a != b }() {
			t.Fatalf("%s: node %d's out-row starts differ", where, u)
		}
	}
	if len(got.Ads) != len(want.Ads) {
		t.Fatalf("%s: %d ads, want %d", where, len(got.Ads), len(want.Ads))
	}
	for i, a := range got.Ads {
		b := want.Ads[i]
		if a.Name != b.Name || math.Float64bits(a.Budget) != math.Float64bits(b.Budget) ||
			math.Float64bits(a.CPE) != math.Float64bits(b.CPE) {
			t.Fatalf("%s: ad %d is %q/%v/%v, want %q/%v/%v", where, i, a.Name, a.Budget, a.CPE, b.Name, b.Budget, b.CPE)
		}
		if !slices.EqualFunc(a.Params.Probs, b.Params.Probs, func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		}) {
			t.Fatalf("%s: ad %d's edge probabilities differ", where, i)
		}
		ca, cb := a.Params.CTPs, b.Params.CTPs
		if ca.N() != cb.N() {
			t.Fatalf("%s: ad %d's CTPs cover %d users, want %d", where, i, ca.N(), cb.N())
		}
		for u := int32(0); u < int32(ca.N()); u++ {
			if math.Float64bits(ca.At(u)) != math.Float64bits(cb.At(u)) {
				t.Fatalf("%s: ad %d's CTP of user %d differs", where, i, u)
			}
		}
	}
	if got.Kappa.At(0) != want.Kappa.At(0) || got.Lambda != want.Lambda {
		t.Fatalf("%s: κ or λ differs", where)
	}
}

// BenchmarkGenerate times one whole instance at paper size — graph, topic
// draw and mix or Weighted-Cascade probabilities, CTPs, budgets — the
// generation a FLIXSTER, EPINIONS or DBLP cold start or restart pays.
func BenchmarkGenerate(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func(Options) *core.Instance
	}{
		{"flixster", Flixster},
		{"epinions", Epinions},
		{"dblp", DBLP},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.gen(Options{Seed: 1, Scale: 1})
			}
		})
	}
}
