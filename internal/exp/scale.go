package exp

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// Table1Row is one dataset's statistics (Table 1).
type Table1Row struct {
	Dataset Dataset
	Nodes   int
	Edges   int64
	Type    string // "directed" / "undirected (both directions)"
	Stats   graph.Stats
	// GiantFrac is the fraction of nodes in the largest weakly connected
	// component — a sanity statistic for the synthetic analogues (a
	// shattered graph would trivialize the influence experiments).
	GiantFrac float64
}

// Table1 regenerates Table 1 at the configured scale (LiveJournal at a
// quarter of it, see scaleFor, so the row stays cheap).
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	kinds := []struct {
		ds  Dataset
		typ string
	}{
		{Flixster, "directed"},
		{Epinions, "directed"},
		{DBLP, "undirected (both directions)"},
		{LiveJournal, "directed"},
	}
	var rows []Table1Row
	for _, k := range kinds {
		inst, err := Generate(k.ds, cfg, gen.Options{Scale: scaleFor(k.ds, cfg)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Dataset:   k.ds,
			Nodes:     inst.G.N(),
			Edges:     inst.G.M(),
			Type:      k.typ,
			Stats:     inst.G.Stats(),
			GiantFrac: graph.GiantComponentFrac(inst.G),
		})
	}
	return rows, nil
}

// ScaleRow is one point of the Fig. 6 / Table 4 scalability experiments.
type ScaleRow struct {
	Dataset Dataset
	Algo    Algo
	// H is the number of advertisers; Budget the per-ad budget (the
	// pre-scale override in Fig6VaryBudget, the generated scaled budget in
	// Fig6VaryH).
	H      int
	Budget float64
	// WallSeconds is the allocation running time (Fig. 6).
	WallSeconds float64
	// MemBytes is the dominant-structure footprint (Table 4).
	MemBytes int64
	Seeds    int
	// SetsSampled is TIRM's θ total.
	SetsSampled int64
}

// scaleFor shrinks LiveJournal relative to the other datasets: at Scale s
// the others keep s but the LJ analogue runs at s/4 (4.8M nodes is 15×
// DBLP's 317K; the quarter scale keeps the "largest configuration" spirit
// without paper-scale memory; documented scale note, DESIGN.md §4).
func scaleFor(ds Dataset, cfg Config) float64 {
	if ds == LiveJournal {
		return cfg.Scale / 4
	}
	return cfg.Scale
}

// Fig6VaryH regenerates Fig. 6(a)/(c) and Table 4: running time and
// memory vs number of advertisers h, per-ad budget fixed at the dataset
// default (5K for DBLP, 80K for LiveJournal, scaled). Empty algos runs the
// paper's choice: TIRM and GREEDY-IRIE on DBLP, TIRM only on LiveJournal
// (GREEDY-IRIE did not finish there for h ≥ 5).
func Fig6VaryH(ds Dataset, cfg Config, hs []int, algos []Algo) ([]ScaleRow, error) {
	if len(hs) == 0 {
		hs = []int{1, 5, 10, 15, 20}
	}
	points := make([]gen.Options, len(hs))
	for i, h := range hs {
		points[i] = gen.Options{NumAds: h}
	}
	return scaleSweep(ds, cfg, points, algos)
}

// Fig6VaryBudget regenerates Fig. 6(b)/(d): running time vs per-ad budget
// with h = 5 advertisers. budgets are pre-scale values (the DBLP panel
// sweeps up to 30K, the LiveJournal panel up to 250K); algos as Fig6VaryH.
func Fig6VaryBudget(ds Dataset, cfg Config, budgets []float64, algos []Algo) ([]ScaleRow, error) {
	if len(budgets) == 0 {
		if ds == LiveJournal {
			budgets = []float64{50000, 100000, 150000, 200000, 250000}
		} else {
			budgets = []float64{5000, 10000, 15000, 20000, 25000, 30000}
		}
	}
	points := make([]gen.Options, len(budgets))
	for i, b := range budgets {
		points[i] = gen.Options{NumAds: gen.ScalabilityAds, BudgetOverride: b}
	}
	return scaleSweep(ds, cfg, points, algos)
}

// scaleSweep is both Fig. 6 sweeps: one κ = 1 instance per point (h
// advertisers, budget override or the dataset default), every algorithm
// run on it and its allocation validated. A row's Budget is the override
// when the point sets one, else the first ad's generated budget.
func scaleSweep(ds Dataset, cfg Config, points []gen.Options, algos []Algo) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	if len(algos) == 0 {
		algos = []Algo{AlgoTIRM, AlgoGreedyIRIE}
		if ds == LiveJournal {
			algos = []Algo{AlgoTIRM}
		}
	}
	// §6.2: α = 0.7 for IRIE, ε = 0.2 for TIRM.
	runCfg := cfg
	runCfg.IRIE.Alpha = 0.7
	var rows []ScaleRow
	for _, o := range points {
		o.Scale, o.Kappa = scaleFor(ds, cfg), 1
		inst, err := Generate(ds, cfg, o)
		if err != nil {
			return nil, err
		}
		budget := o.BudgetOverride
		if budget == 0 {
			budget = inst.Ads[0].Budget
		}
		for _, algo := range algos {
			alloc, stats, err := RunAlgo(inst, algo, runCfg)
			if err != nil {
				return nil, err
			}
			if err := alloc.Validate(inst); err != nil {
				return nil, err
			}
			rows = append(rows, ScaleRow{
				Dataset:     ds,
				Algo:        algo,
				H:           o.NumAds,
				Budget:      budget,
				WallSeconds: stats.Wall.Seconds(),
				MemBytes:    stats.MemBytes,
				Seeds:       stats.Seeds,
				SetsSampled: stats.SetsSampled,
			})
			cfg.log("%s %s h=%d B=%.0f: %.2fs %d seeds %.1f MB\n",
				ds, algo, o.NumAds, budget, stats.Wall.Seconds(), stats.Seeds, float64(stats.MemBytes)/1e6)
		}
	}
	return rows, nil
}
