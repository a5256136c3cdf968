// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation section (§6), each producing the same rows/series
// the paper reports. cmd/exprun prints them; bench_test.go times them.
//
// Experiment index — the ids of Experiments, the catalog cmd/exprun looks
// up (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	table1  dataset statistics (Table 1)
//	table2  advertiser budgets and CPE values (Table 2)
//	fig1    the running toy example, allocations A and B (Figure 1)
//	fig3    total regret vs attention bound κ, λ ∈ {0, 0.5}
//	fig4    total regret vs λ, κ ∈ {1, 5}
//	fig5    distribution of individual budget-regrets, λ = 0, κ = 5
//	table3  number of distinct targeted nodes vs κ, λ = 0
//	fig6h   running time vs h (Fig. 6(a)/(c), scalability datasets)
//	fig6b   running time vs per-ad budget (Fig. 6(b)/(d))
//	table4  memory usage vs h (Table 4)
//	boost   budget-boosting ablation (§3 Discussion, B' = (1+β)·B)
//	soft    ABL-SOFT: hard vs CTP-weighted soft coverage (TIRM-W)
package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/irie"
	"repro/internal/xrand"
)

// Algo names an allocation algorithm (§6 "Algorithms").
type Algo string

// The four algorithms the paper compares, plus the conceptual reference
// GREEDY-MC (Algorithm 1 with Monte Carlo spread estimation — the paper
// dismisses it as "prohibitively expensive and not scalable" in §5, so it
// is only usable on small instances).
const (
	AlgoTIRM       Algo = "TIRM"
	AlgoGreedyIRIE Algo = "GREEDY-IRIE"
	AlgoMyopic     Algo = "MYOPIC"
	AlgoMyopicPlus Algo = "MYOPIC+"
	AlgoGreedyMC   Algo = "GREEDY-MC"
)

// AllAlgos lists the paper's four algorithms in reporting order.
var AllAlgos = []Algo{AlgoMyopic, AlgoMyopicPlus, AlgoGreedyIRIE, AlgoTIRM}

// Dataset names the four evaluation datasets.
type Dataset string

// The datasets of Table 1 (our synthetic analogues).
const (
	Flixster    Dataset = "FLIXSTER"
	Epinions    Dataset = "EPINIONS"
	DBLP        Dataset = "DBLP"
	LiveJournal Dataset = "LIVEJOURNAL"
)

// QualityDatasets are the datasets of §6.1 (Table 2).
var QualityDatasets = []Dataset{Flixster, Epinions}

// Config holds harness-wide knobs. The zero value is usable: it selects the
// scaled-down defaults that run on a laptop-class machine.
type Config struct {
	// Seed drives dataset generation and every algorithm's randomness.
	Seed uint64
	// Scale multiplies paper-scale dataset sizes (default 0.05 for quality
	// runs; Fig6/Table4 further scale LiveJournal down, see scaleFor).
	Scale float64
	// EvalRuns is the MC evaluation budget (paper: 10000; default 2000).
	EvalRuns int
	// TIRM options; zero values pick ε=0.2, MinTheta 10K, MaxTheta 300K —
	// the scaled-run equivalents of the paper's settings.
	TIRM core.TIRMOptions
	// IRIE options; zero values pick α=0.8 (the paper's best quality
	// setting; Fig6 runs use 0.7 per §6.2).
	IRIE irie.Options
	// GreedyMCRuns is the Monte Carlo budget per spread evaluation for
	// AlgoGreedyMC (default 1000). Only viable on small instances.
	GreedyMCRuns int
	// Verbose enables progress lines on stderr via Logf.
	Verbose bool
	Logf    func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.EvalRuns <= 0 {
		c.EvalRuns = 2000
	}
	if c.TIRM.Eps <= 0 {
		c.TIRM.Eps = 0.2
	}
	if c.TIRM.MinTheta <= 0 {
		c.TIRM.MinTheta = 10000
	}
	if c.TIRM.MaxTheta <= 0 {
		c.TIRM.MaxTheta = 300000
	}
	if c.IRIE.Alpha <= 0 {
		c.IRIE.Alpha = 0.8
	}
	if c.GreedyMCRuns <= 0 {
		c.GreedyMCRuns = 1000
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

func (c Config) log(format string, args ...interface{}) {
	if c.Verbose {
		c.Logf(format, args...)
	}
}

// Generate builds the named dataset (any gen.Catalog name or alias) at the
// config's scale.
func Generate(ds Dataset, cfg Config, o gen.Options) (*core.Instance, error) {
	d, ok := gen.Lookup(string(ds))
	if !ok {
		return nil, fmt.Errorf("exp: unknown dataset %q", ds)
	}
	cfg = cfg.withDefaults()
	if o.Scale <= 0 {
		o.Scale = cfg.Scale
	}
	if o.Seed == 0 {
		o.Seed = cfg.Seed + 1
	}
	return d.Build(o), nil
}

// RunStats instruments one algorithm run.
type RunStats struct {
	Wall time.Duration
	// MemBytes is the algorithm's dominant-structure footprint (RR-set
	// indexes for TIRM; O(h·n) rank state for GREEDY-IRIE; ~0 for the
	// myopic baselines).
	MemBytes int64
	// SetsSampled is TIRM's total RR-set count (0 for others).
	SetsSampled int64
	Seeds       int
}

// algoCatalog is every algorithm RunAlgo runs, with the lower-case
// aliases LookupAlgo accepts beside its name, in AllAlgos order.
var algoCatalog = []struct {
	algo    Algo
	aliases []string
	run     func(inst *core.Instance, cfg Config, rng *xrand.Rand) (*core.Allocation, RunStats, error)
}{
	{AlgoMyopic, nil, func(inst *core.Instance, _ Config, _ *xrand.Rand) (*core.Allocation, RunStats, error) {
		return baselines.Myopic(inst), RunStats{}, nil
	}},
	{AlgoMyopicPlus, []string{"myopicplus"}, func(inst *core.Instance, _ Config, _ *xrand.Rand) (*core.Allocation, RunStats, error) {
		return baselines.MyopicPlus(inst), RunStats{}, nil
	}},
	{AlgoGreedyIRIE, []string{"irie"}, func(inst *core.Instance, cfg Config, _ *xrand.Rand) (*core.Allocation, RunStats, error) {
		res, err := core.Greedy(inst, func(i int) core.AdEstimator {
			ad := inst.Ads[i]
			return irie.NewEstimator(inst.G, ad.Params.Probs, ad.Params.CTPs, ad.CPE, cfg.IRIE)
		}, core.GreedyOptions{})
		if err != nil {
			return nil, RunStats{}, err
		}
		// Rank, AP and scratch vectors per ad: 3 float64 slices of length n.
		return res.Alloc, RunStats{MemBytes: int64(len(inst.Ads)) * int64(inst.G.N()) * 24}, nil
	}},
	{AlgoTIRM, nil, func(inst *core.Instance, cfg Config, rng *xrand.Rand) (*core.Allocation, RunStats, error) {
		res, err := core.TIRM(inst, rng, cfg.TIRM)
		if err != nil {
			return nil, RunStats{}, err
		}
		return res.Alloc, RunStats{MemBytes: res.MemBytes, SetsSampled: res.TotalSetsSampled}, nil
	}},
	{AlgoGreedyMC, nil, func(inst *core.Instance, cfg Config, rng *xrand.Rand) (*core.Allocation, RunStats, error) {
		res, err := core.Greedy(inst, core.NewMCFactory(inst, cfg.GreedyMCRuns, rng), core.GreedyOptions{})
		if err != nil {
			return nil, RunStats{}, err
		}
		return res.Alloc, RunStats{}, nil
	}},
}

// LookupAlgo resolves an algorithm name ("tirm", "greedy-irie", "myopic",
// "myopic+", "greedy-mc") or alias ("irie", "myopicplus"), ignoring case.
func LookupAlgo(name string) (Algo, bool) {
	for _, a := range algoCatalog {
		if strings.EqualFold(name, string(a.algo)) || slices.Contains(a.aliases, strings.ToLower(name)) {
			return a.algo, true
		}
	}
	return "", false
}

// RunAlgo executes one algorithm on an instance and returns its allocation
// with timing/memory instrumentation. Deterministic given cfg.Seed.
func RunAlgo(inst *core.Instance, algo Algo, cfg Config) (*core.Allocation, RunStats, error) {
	cfg = cfg.withDefaults()
	for _, a := range algoCatalog {
		if a.algo != algo {
			continue
		}
		start := time.Now()
		alloc, stats, err := a.run(inst, cfg, xrand.New(cfg.Seed+77))
		if err != nil {
			return nil, stats, err
		}
		stats.Wall = time.Since(start)
		stats.Seeds = alloc.NumSeeds()
		return alloc, stats, nil
	}
	return nil, RunStats{}, fmt.Errorf("exp: unknown algorithm %q", algo)
}

// EvaluateAlloc scores an allocation with the config's MC budget.
func EvaluateAlloc(inst *core.Instance, alloc *core.Allocation, cfg Config) *eval.Outcome {
	cfg = cfg.withDefaults()
	return eval.Evaluate(inst, alloc, cfg.EvalRuns, xrand.New(cfg.Seed+999))
}
