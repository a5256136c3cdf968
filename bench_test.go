// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablations for the design choices DESIGN.md calls
// out. Each benchmark regenerates its experiment at a laptop-scale
// configuration and reports the paper's metric (regret, targeted nodes,
// seconds, MB) via b.ReportMetric, so `go test -bench=. -benchmem` prints
// the same series the paper plots. EXPERIMENTS.md records the paper-vs-
// measured comparison; cmd/exprun prints the full tables at larger scales.
package socialads_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	socialads "repro"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/exp"
	"repro/internal/gen"
	obspkg "repro/internal/obs"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// benchCfg is the shared scaled-down configuration (see DESIGN.md §4 for
// the scale note).
func benchCfg() exp.Config {
	return exp.Config{
		Seed:     1,
		Scale:    0.02,
		EvalRuns: 500,
		TIRM:     core.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000},
	}
}

// BenchmarkFig1Toy regenerates the running example: Algorithm 1 (exact
// oracle) on the Figure 1 gadget, reporting the regret it achieves next to
// the paper's hand allocations (6.6 for A, 2.7 for B).
func BenchmarkFig1Toy(b *testing.B) {
	var regret float64
	for i := 0; i < b.N; i++ {
		inst := socialads.Fig1Instance(0)
		res, err := socialads.AllocateGreedyExact(inst, socialads.GreedyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		out := socialads.Evaluate(inst, res.Alloc, 20000, 3)
		regret = out.TotalRegret
	}
	b.ReportMetric(regret, "regret")
}

// BenchmarkTable1Datasets times generation of the four dataset analogues
// and reports their sizes.
func BenchmarkTable1Datasets(b *testing.B) {
	var nodes, edges float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		nodes, edges = 0, 0
		for _, r := range rows {
			nodes += float64(r.Nodes)
			edges += float64(r.Edges)
		}
	}
	b.ReportMetric(nodes, "nodes")
	b.ReportMetric(edges, "edges")
}

// BenchmarkTable2Budgets regenerates the advertiser-parameter summary.
func BenchmarkTable2Budgets(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean = rows[0].BudgetMean
	}
	b.ReportMetric(mean, "flixster-budget-mean")
}

// BenchmarkFig3RegretVsAttention runs the κ sweep (λ=0, κ∈{1,5}) on the
// FLIXSTER analogue with all four algorithms and reports the endpoint
// regrets relative to budget. Paper shape: TIRM lowest and decreasing in
// κ; MYOPIC/MYOPIC+ far above and increasing in κ.
func BenchmarkFig3RegretVsAttention(b *testing.B) {
	cfg := benchCfg()
	var tirm1, tirm5, myopic5 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.QualitySweep(exp.Flixster, cfg, []int{1, 5}, []float64{0}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch {
			case r.Algo == exp.AlgoTIRM && r.Kappa == 1:
				tirm1 = 100 * r.RegretOverBudget
			case r.Algo == exp.AlgoTIRM && r.Kappa == 5:
				tirm5 = 100 * r.RegretOverBudget
			case r.Algo == exp.AlgoMyopic && r.Kappa == 5:
				myopic5 = 100 * r.RegretOverBudget
			}
		}
	}
	b.ReportMetric(tirm1, "tirm-k1-%budget")
	b.ReportMetric(tirm5, "tirm-k5-%budget")
	b.ReportMetric(myopic5, "myopic-k5-%budget")
}

// BenchmarkFig4RegretVsLambda runs the λ sweep (κ=1, λ∈{0,1}).
// Paper shape: regret grows with λ for every algorithm, TIRM stays lowest.
func BenchmarkFig4RegretVsLambda(b *testing.B) {
	cfg := benchCfg()
	var tirm0, tirm1 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.QualitySweep(exp.Flixster, cfg, []int{1}, []float64{0, 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algo == exp.AlgoTIRM {
				if r.Lambda == 0 {
					tirm0 = r.TotalRegret
				} else {
					tirm1 = r.TotalRegret
				}
			}
		}
	}
	b.ReportMetric(tirm0, "tirm-l0-regret")
	b.ReportMetric(tirm1, "tirm-l1-regret")
}

// BenchmarkFig5IndividualRegrets regenerates the per-ad overshoot
// distribution (λ=0, κ=5) and reports the skew statistic the paper uses to
// argue TIRM's distribution is more uniform than GREEDY-IRIE's.
func BenchmarkFig5IndividualRegrets(b *testing.B) {
	cfg := benchCfg()
	var tirmSkew, irieSkew float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5(exp.Flixster, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tirmSkew = exp.Fig5Skew(rows, exp.AlgoTIRM)
		irieSkew = exp.Fig5Skew(rows, exp.AlgoGreedyIRIE)
	}
	b.ReportMetric(tirmSkew, "tirm-skew")
	b.ReportMetric(irieSkew, "irie-skew")
}

// BenchmarkTable3TargetedNodes reports distinct targeted nodes at κ=1 and
// κ=5 for TIRM (decreasing in κ) and MYOPIC (always n).
func BenchmarkTable3TargetedNodes(b *testing.B) {
	cfg := benchCfg()
	var tirm1, tirm5, myopic float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.QualitySweep(exp.Flixster, cfg, []int{1, 5}, []float64{0},
			[]exp.Algo{exp.AlgoTIRM, exp.AlgoMyopic})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch {
			case r.Algo == exp.AlgoTIRM && r.Kappa == 1:
				tirm1 = float64(r.DistinctTargeted)
			case r.Algo == exp.AlgoTIRM && r.Kappa == 5:
				tirm5 = float64(r.DistinctTargeted)
			case r.Algo == exp.AlgoMyopic && r.Kappa == 1:
				myopic = float64(r.DistinctTargeted)
			}
		}
	}
	b.ReportMetric(tirm1, "tirm-k1-targeted")
	b.ReportMetric(tirm5, "tirm-k5-targeted")
	b.ReportMetric(myopic, "myopic-targeted")
}

// BenchmarkFig6Scalability regenerates the running-time curves: TIRM on
// the DBLP analogue for h ∈ {1, 5} (Fig. 6a) and for two budgets
// (Fig. 6b). Paper shape: near-linear in h, flat-ish in budget.
func BenchmarkFig6Scalability(b *testing.B) {
	cfg := benchCfg()
	var h1, h5, b1, b2 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6VaryH(exp.DBLP, cfg, []int{1, 5}, []exp.Algo{exp.AlgoTIRM})
		if err != nil {
			b.Fatal(err)
		}
		h1, h5 = rows[0].WallSeconds, rows[1].WallSeconds
		bud, err := exp.Fig6VaryBudget(exp.DBLP, cfg, []float64{5000, 20000}, []exp.Algo{exp.AlgoTIRM})
		if err != nil {
			b.Fatal(err)
		}
		b1, b2 = bud[0].WallSeconds, bud[1].WallSeconds
	}
	b.ReportMetric(h5/h1, "time-ratio-h5/h1")
	b.ReportMetric(b2/b1, "time-ratio-B4x")
}

// BenchmarkTable4Memory reports TIRM's RR-index footprint growth with h.
func BenchmarkTable4Memory(b *testing.B) {
	cfg := benchCfg()
	var m1, m5 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6VaryH(exp.DBLP, cfg, []int{1, 5}, []exp.Algo{exp.AlgoTIRM})
		if err != nil {
			b.Fatal(err)
		}
		m1 = float64(rows[0].MemBytes) / 1e6
		m5 = float64(rows[1].MemBytes) / 1e6
	}
	b.ReportMetric(m1, "h1-MB")
	b.ReportMetric(m5, "h5-MB")
}

// BenchmarkAblationBoostedBudget regenerates the §3-Discussion ablation:
// allocate against boosted budgets B' = (1+β)B, score against the
// originals; overshoot (free service) should grow with β while undershoot
// shrinks.
func BenchmarkAblationBoostedBudget(b *testing.B) {
	cfg := benchCfg()
	var freeService float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Boost(exp.Flixster, cfg, []float64{0, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		freeService = rows[1].Overshoot - rows[0].Overshoot
	}
	b.ReportMetric(freeService, "extra-free-service")
}

// BenchmarkAblationSoftCoverage runs the ABL-SOFT ablation: the paper's
// hard set-removal bookkeeping against the TIRM-W CTP-weighted extension.
// The reported calibration error is the gap between TIRM's internal
// revenue estimate and the neutral MC evaluation — the first-seed-credit
// bias that makes hard mode overshoot budgets at high seed density.
func BenchmarkAblationSoftCoverage(b *testing.B) {
	cfg := benchCfg()
	var hardErr, softErr, hardPct, softPct float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.SoftAblation(exp.Flixster, cfg)
		if err != nil {
			b.Fatal(err)
		}
		hardErr, softErr = rows[0].CalibrationErr, rows[1].CalibrationErr
		hardPct, softPct = 100*rows[0].RegretOverBudget, 100*rows[1].RegretOverBudget
	}
	b.ReportMetric(hardErr, "hard-calib-err")
	b.ReportMetric(softErr, "soft-calib-err")
	b.ReportMetric(hardPct, "hard-%budget")
	b.ReportMetric(softPct, "soft-%budget")
}

// BenchmarkAblationRRCvsRR compares the two CTP treatments of §5.2: plain
// RR-sets with δ-scaled marginals (Theorem 5, what TIRM uses) versus RRC
// sets with node coins. The paper argues RRC needs ~1/δ more samples for
// the same signal: with CTP ≈ 0.02, an RRC set is ~50× less likely to
// register a given seed, so its per-set information is proportionally
// lower while its sampling cost is the same.
func BenchmarkAblationRRCvsRR(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 1, Scale: 0.02})
	ad := inst.Ads[0]
	s := rrset.NewSampler(inst.G, ad.Params.Probs, ad.Params.CTPs)
	const batch = 20000
	b.Run("RR", func(b *testing.B) {
		var nonEmpty int
		for i := 0; i < b.N; i++ {
			fam := rrset.NewSetFamily()
			s.SampleRangeRRInto(0, rrset.StreamCeil(batch), xrand.New(uint64(i)), fam)
			nonEmpty = 0
			for j := 0; j < batch; j++ {
				if len(fam.Set(j)) > 0 {
					nonEmpty++
				}
			}
		}
		b.ReportMetric(float64(nonEmpty)/batch, "nonempty-frac")
	})
	b.Run("RRC", func(b *testing.B) {
		var nonEmpty int
		for i := 0; i < b.N; i++ {
			fam := rrset.NewSetFamily()
			s.SampleRangeRRCInto(0, rrset.StreamCeil(batch), xrand.New(uint64(i)), fam)
			nonEmpty = 0
			for j := 0; j < batch; j++ {
				if len(fam.Set(j)) > 0 {
					nonEmpty++
				}
			}
		}
		b.ReportMetric(float64(nonEmpty)/batch, "nonempty-frac")
	})
}

// BenchmarkAblationCELF measures the lazy-evaluation saving of the CELF
// queue inside Algorithm 1: marginal evaluations per committed seed versus
// the naive h·n scan the textbook greedy would pay.
func BenchmarkAblationCELF(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 2, Scale: 0.01, Kappa: 2})
	var evalsPerSeed, naivePerSeed float64
	for i := 0; i < b.N; i++ {
		res, err := socialads.AllocateGreedyIRIE(inst, socialads.IRIEOptions{}, socialads.GreedyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations > 0 {
			evalsPerSeed = float64(res.Evals) / float64(res.Iterations)
			naivePerSeed = float64(inst.G.N() * len(inst.Ads))
		}
	}
	b.ReportMetric(evalsPerSeed, "evals/seed")
	b.ReportMetric(naivePerSeed, "naive-evals/seed")
}

// BenchmarkAblationCandidateDepth compares the paper's depth-1
// SelectBestNode against the CandidateDepth extension (score the top-4
// coverage candidates by regret drop). Depth helps near budget boundaries
// where the max-coverage node overshoots.
func BenchmarkAblationCandidateDepth(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 7, Scale: 0.02, Kappa: 1})
	var r1, r4 float64
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{1, 4} {
			res, err := socialads.AllocateTIRM(inst, 42, socialads.TIRMOptions{
				Eps: 0.3, MinTheta: 5000, MaxTheta: 50000, CandidateDepth: depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			out := socialads.Evaluate(inst, res.Alloc, 500, 7)
			if depth == 1 {
				r1 = out.TotalRegret
			} else {
				r4 = out.TotalRegret
			}
		}
	}
	b.ReportMetric(r1, "depth1-regret")
	b.ReportMetric(r4, "depth4-regret")
}

// --- Micro-benchmarks for the substrates -------------------------------

// BenchmarkDiffusionMC measures parallel TIC-CTP cascade throughput.
func BenchmarkDiffusionMC(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 3, Scale: 0.05})
	sim := diffusion.NewSimulator(inst.G, inst.Ads[0].Params)
	seeds := make([]int32, 50)
	for i := range seeds {
		seeds[i] = int32(i * 7)
	}
	rng := xrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SpreadMCParallel(seeds, 10000, rng)
	}
}

// BenchmarkSampleRange measures the reverse-BFS sampler where it is
// memory-bound: the full-scale FLIXSTER (30K nodes, 401K arcs, topical
// probabilities, in-degree 13) and DBLP (317K nodes, 1.9M arcs, weighted
// cascade) analogues, whose in-CSR rows, probabilities and visit marks do
// not fit in L2 — the sizes flix_warm and dblp_cold build their indexes at
// (a 1 500-node graph samples out of cache and shows none of it). One
// iteration is one SampleRangeRRInto of 64 blocks of ad 0's stream, the call
// BuildIndex, Grow and POST /ads all bottom out in. The instance, and the
// sampler's lazily built in-order probability vector, are set up outside the
// timer. Run with -cpu 1,2: the blocks fan out over GOMAXPROCS workers.
func BenchmarkSampleRange(b *testing.B) {
	const sets = 64 * rrset.StreamBlockSize
	for _, name := range []string{"flixster", "dblp"} {
		ds, _ := gen.Lookup(name)
		var s *rrset.Sampler
		b.Run(ds.Name, func(b *testing.B) {
			rng := xrand.New(10)
			if s == nil {
				inst := ds.Build(gen.Options{Seed: 1, Scale: 1})
				s = rrset.NewSampler(inst.G, inst.Ads[0].Params.Probs, nil)
				s.SampleRangeRRInto(0, rrset.StreamBlockSize, rng, rrset.NewSetFamily())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleRangeRRInto(i*sets, (i+1)*sets, rng, rrset.NewSetFamily())
			}
			b.ReportMetric(float64(b.N)*sets/b.Elapsed().Seconds(), "sets/s")
		})
	}
}

// BenchmarkTIRMAllocate measures a full TIRM run on the FLIXSTER analogue.
func BenchmarkTIRMAllocate(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	b.ResetTimer()
	var seeds int
	for i := 0; i < b.N; i++ {
		res, err := socialads.AllocateTIRM(inst, uint64(i), socialads.TIRMOptions{
			Eps: 0.3, MinTheta: 5000, MaxTheta: 50000,
		})
		if err != nil {
			b.Fatal(err)
		}
		seeds = res.Alloc.NumSeeds()
	}
	b.ReportMetric(float64(seeds), "seeds")
}

// BenchmarkIndexColdVsWarm quantifies the two-stage split on the FLIXSTER
// analogue: "cold" is the one-shot core.TIRM (sample + select every call,
// what every CLI invocation used to pay); "warm" is AllocateFromIndex
// against a prebuilt index (what the serve layer pays per request). The
// warm path does no reverse-BFS sampling, only coverage bookkeeping, and
// must come in at least 5× faster.
func BenchmarkIndexColdVsWarm(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	opts := socialads.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000}
	b.Run("cold-TIRM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := socialads.AllocateTIRM(inst, 42, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-AllocateFromIndex", func(b *testing.B) {
		idx, err := socialads.BuildIndex(inst, 42, opts)
		if err != nil {
			b.Fatal(err)
		}
		// One untimed run grows the index to the θs the selection needs.
		if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts})
			if err != nil {
				b.Fatal(err)
			}
			if res.TotalSetsSampled != 0 {
				b.Fatalf("warm run drew %d sets", res.TotalSetsSampled)
			}
		}
	})
}

// BenchmarkWarmWorkspaceReuse isolates what workspace pooling is worth on
// the warm path: "pooled" keeps one AllocWorkspacePool across iterations
// (the steady state of internal/serve, where each cache entry owns a
// pool), "cold-workspace" hands every request a fresh pool so each run
// rebuilds its per-ad coverage state from scratch. Allocations are
// byte-identical either way — the delta is pure allocation and
// reinitialization cost.
func BenchmarkWarmWorkspaceReuse(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	opts := socialads.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000}
	idx, err := socialads.BuildIndex(inst, 42, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Grow the index to the θs selection needs so both variants are warm.
	if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts}); err != nil {
		b.Fatal(err)
	}
	b.Run("pooled", func(b *testing.B) {
		pool := &socialads.AllocWorkspacePool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts, Pool: pool}); err != nil {
				b.Fatal(err)
			}
		}
		hits, misses := pool.Stats()
		b.ReportMetric(float64(hits)/float64(hits+misses), "pool-hit-rate")
	})
	b.Run("cold-workspace", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool := &socialads.AllocWorkspacePool{}
			if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts, Pool: pool}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexOpen prices a warm request's fixed cost at the two
// full-scale graphs: one AllocateFromIndex capped at one seed per ad — the
// per-ad set-up (pilot KPT, coverage state, candidate heap) plus a single
// greedy round per ad. "hit" repeats one θ, so every coverage state copies
// the opening stored on its inverted index; "miss" rotates through one θ
// more than an index keeps (rrset.OpeningCap), so every request builds its
// openings — row clip and heap — as every request did before they were
// stored. θ is moved through MaxTheta, which at these sizes is what binds
// it. openings/op reports how many of the request's ads built theirs.
func BenchmarkIndexOpen(b *testing.B) {
	const maxTheta = 200000
	for _, name := range []string{"flixster", "dblp"} {
		ds, _ := gen.Lookup(name)
		var idx *socialads.Index
		pool := &socialads.AllocWorkspacePool{}
		run := func(b *testing.B, thetas int) {
			if idx == nil {
				var err error
				if idx, err = socialads.BuildIndex(ds.Build(gen.Options{Seed: 1, Scale: 1}), 42, socialads.TIRMOptions{MaxTheta: maxTheta}); err != nil {
					b.Fatal(err)
				}
			}
			request := func(i int) socialads.AllocRequest {
				theta := maxTheta - (i%thetas)*rrset.StreamBlockSize/2
				return socialads.AllocRequest{Opts: socialads.TIRMOptions{MaxTheta: theta, MaxSeedsPerAd: 1}, Pool: pool}
			}
			for i := 0; i < thetas; i++ { // one lap: the workspace and, for "hit", the opening are in place
				if _, err := socialads.AllocateFromIndex(idx, request(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			built := 0
			for i := 0; i < b.N; i++ {
				res, err := socialads.AllocateFromIndex(idx, request(i))
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalSetsSampled != 0 {
					b.Fatalf("a request under the build's θ drew %d sets", res.TotalSetsSampled)
				}
				built += res.OpeningsBuilt
			}
			b.ReportMetric(float64(built)/float64(b.N), "openings/op")
		}
		b.Run(ds.Name+"/hit", func(b *testing.B) { run(b, 1) })
		b.Run(ds.Name+"/miss", func(b *testing.B) { run(b, rrset.OpeningCap+1) })
	}
}

// BenchmarkObsOverhead prices the observability hooks on the warm
// allocation path: "nil-observer" is the production fast path (no observer
// attached — no clocks are read, so allocs/op must match the pooled warm
// baseline exactly), "observed" attaches an AllocObserver and pays the
// per-phase time.Now() calls plus one callback per run. The delta is the
// instrumentation bill; benchdiff guards it from growing.
func BenchmarkObsOverhead(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	opts := socialads.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000}
	idx, err := socialads.BuildIndex(inst, 42, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Grow the index to the θs selection needs so both variants are warm.
	if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts}); err != nil {
		b.Fatal(err)
	}
	b.Run("nil-observer", func(b *testing.B) {
		pool := &socialads.AllocWorkspacePool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := socialads.AllocateFromIndex(idx, socialads.AllocRequest{Opts: opts, Pool: pool}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		pool := &socialads.AllocWorkspacePool{}
		var obs countingObserver
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := socialads.AllocRequest{Opts: opts, Pool: pool, Observer: &obs}
			if _, err := socialads.AllocateFromIndex(idx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if obs.calls != b.N {
			b.Fatalf("observer saw %d runs, want %d", obs.calls, b.N)
		}
	})
	b.Run("traced", func(b *testing.B) {
		// The full tracing bill: one root span per run plus the phase
		// children and explain commit events the serve layer records for
		// a traced request. The delta over "observed" prices span trees.
		pool := &socialads.AllocWorkspacePool{}
		tracer := obspkg.NewTracer(obspkg.TracerConfig{Capacity: 64})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, span := tracer.StartSpan(ctx, "alloc")
			req := socialads.AllocRequest{
				Opts: opts, Pool: pool, Explain: true,
				Observer: &spanObserver{span: span},
			}
			if _, err := socialads.AllocateFromIndex(idx, req); err != nil {
				b.Fatal(err)
			}
			span.End()
		}
	})
}

// spanObserver mirrors the serve layer's traced-request observer: phase
// timings become synthetic child spans and explain commits become span
// events, so BenchmarkObsOverhead/traced prices the whole rendering path.
type spanObserver struct{ span *obspkg.Span }

func (o *spanObserver) ObserveAllocation(t socialads.AllocPhaseTimings) {
	o.span.SetInt("rounds", int64(t.Rounds))
	var offset time.Duration
	for p := socialads.AllocPhase(0); p < core.NumAllocPhases; p++ {
		d := t.Phase[p]
		if d <= 0 {
			continue
		}
		o.span.AddChild("phase."+p.String(), offset, d)
		offset += d
	}
}

func (o *spanObserver) ObserveCommit(ev socialads.AllocCommitEvent) {
	o.span.Event("commit",
		obspkg.Int("round", int64(ev.Round)),
		obspkg.Int("ad", int64(ev.Ad)),
		obspkg.Int("node", int64(ev.Node)),
		obspkg.Int("gainMicro", int64(ev.Gain*1e6)),
		obspkg.Int("residualMicro", int64(ev.Residual*1e6)))
}

// countingObserver is the cheapest possible AllocObserver: it counts
// callbacks so BenchmarkObsOverhead measures the hook cost, not the
// consumer's.
type countingObserver struct{ calls int }

func (c *countingObserver) ObserveAllocation(socialads.AllocPhaseTimings) { c.calls++ }

// BenchmarkIndexBuild measures the cold index-build path alone — the
// reverse-BFS sampling plus the flat-arena (CSR) storage and one-pass
// inverted-index construction — with allocation counts reported. This is
// the hot path the arena refactor targets: run with -benchmem and compare
// allocs/op and B/op against the pointer-based [][]int32 layout (which paid
// one allocation per set plus per-node append lists).
func BenchmarkIndexBuild(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	opts := socialads.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000}
	b.ReportAllocs()
	b.ResetTimer()
	var mem int64
	for i := 0; i < b.N; i++ {
		idx, err := socialads.BuildIndex(inst, 42, opts)
		if err != nil {
			b.Fatal(err)
		}
		mem = idx.MemBytes()
	}
	b.ReportMetric(float64(mem)/1e6, "index-MB")
}

// BenchmarkIndexSnapshotLoad measures a restart at the index level, on
// BenchmarkIndexBuild's instance: the index is built and saved once, and
// every iteration loads the snapshot from memory — header and fingerprint
// check, section decode, and the per-ad rebuild of inverted index and cover
// join that is most of the time (BenchmarkSnapshotCodec times the section
// codec alone). Compare with BenchmarkIndexBuild for what a
// snapshot saves over a cold start.
func BenchmarkIndexSnapshotLoad(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 5, Scale: 0.02})
	opts := socialads.TIRMOptions{Eps: 0.3, MinTheta: 5000, MaxTheta: 50000}
	idx, err := socialads.BuildIndex(inst, 42, opts)
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := socialads.SaveIndex(&snap, idx); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := socialads.LoadIndex(inst, bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if loaded.NumAds() != idx.NumAds() || loaded.NumSets(0) != idx.NumSets(0) {
			b.Fatalf("loaded index holds %d ads / %d sets, built one %d / %d",
				loaded.NumAds(), loaded.NumSets(0), idx.NumAds(), idx.NumSets(0))
		}
	}
}

// BenchmarkInstanceFingerprint prices core.InstanceFingerprint on the two
// full-scale graphs a restart binds a snapshot to: a snapshot's Bind runs
// it after the instance generates and WriteSnapshot before a cold start's
// first answer, so both pay it on the critical path. The instance is
// generated outside the timer.
func BenchmarkInstanceFingerprint(b *testing.B) {
	for _, name := range []string{"flixster", "dblp"} {
		ds, _ := gen.Lookup(name)
		var inst *core.Instance
		b.Run(ds.Name, func(b *testing.B) {
			if inst == nil {
				inst = ds.Build(gen.Options{Seed: 1, Scale: 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.InstanceFingerprint(inst)
			}
		})
	}
}

// BenchmarkGreedyIRIEAllocate measures a full GREEDY-IRIE run.
func BenchmarkGreedyIRIEAllocate(b *testing.B) {
	inst := gen.Flixster(gen.Options{Seed: 6, Scale: 0.02})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := socialads.AllocateGreedyIRIE(inst, socialads.IRIEOptions{}, socialads.GreedyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of reading a benchmark row (keeps godoc lively and guards the
// fmt import).
func ExampleFig1() {
	inst := socialads.Fig1Instance(0)
	out := socialads.Evaluate(inst, socialads.Fig1AllocationB(), 400000, 2)
	fmt.Printf("allocation B regret ≈ %.1f\n", out.TotalRegret)
	// Output: allocation B regret ≈ 2.7
}
