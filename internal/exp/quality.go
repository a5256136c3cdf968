package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
)

// QualityRow is one point of the Fig. 3 / Fig. 4 sweeps: the MC-evaluated
// total regret of one algorithm at one (κ, λ) setting.
type QualityRow struct {
	Dataset          Dataset
	Algo             Algo
	Kappa            int
	Lambda           float64
	TotalRegret      float64
	RegretOverBudget float64
	Seeds            int
	DistinctTargeted int
	Wall             float64 // seconds
}

// QualitySweep runs the paper's four algorithms over a (κ, λ) grid on one
// quality dataset and MC-evaluates every allocation. Fig. 3 uses
// λ ∈ {0, 0.5} × κ ∈ 1..5; Fig. 4 uses λ ∈ {0, 0.1, 0.5, 1} × κ ∈ {1, 5};
// Table 3 reads the DistinctTargeted column at λ = 0.
func QualitySweep(ds Dataset, cfg Config, kappas []int, lambdas []float64, algos []Algo) ([]QualityRow, error) {
	cfg = cfg.withDefaults()
	if len(algos) == 0 {
		algos = AllAlgos
	}
	var rows []QualityRow
	for _, lambda := range lambdas {
		for _, kappa := range kappas {
			inst, err := Generate(ds, cfg, gen.Options{Kappa: kappa, Lambda: lambda})
			if err != nil {
				return nil, err
			}
			for _, algo := range algos {
				alloc, stats, err := RunAlgo(inst, algo, cfg)
				if err != nil {
					return nil, err
				}
				if err := alloc.Validate(inst); err != nil {
					return nil, fmt.Errorf("exp: %s produced invalid allocation: %v", algo, err)
				}
				out := EvaluateAlloc(inst, alloc, cfg)
				rows = append(rows, QualityRow{
					Dataset:          ds,
					Algo:             algo,
					Kappa:            kappa,
					Lambda:           lambda,
					TotalRegret:      out.TotalRegret,
					RegretOverBudget: out.RegretOverBudget,
					Seeds:            out.TotalSeeds,
					DistinctTargeted: out.DistinctTargeted,
					Wall:             stats.Wall.Seconds(),
				})
				cfg.log("%s %s κ=%d λ=%.1f: regret=%.1f (%.1f%%)\n",
					ds, algo, kappa, lambda, out.TotalRegret, 100*out.RegretOverBudget)
			}
		}
	}
	return rows, nil
}

// Fig5Row is one bar of Figure 5: an advertiser's signed budget-regret
// (revenue − budget) under one algorithm, at λ = 0, κ = 5.
type Fig5Row struct {
	Dataset Dataset
	Algo    Algo
	Ad      string
	Budget  float64
	Revenue float64
	// Overshoot = Revenue − Budget (the paper plots this per ad).
	Overshoot float64
	Seeds     int
}

// Fig5 regenerates Figure 5: the per-ad distribution of revenue − budget
// for TIRM and GREEDY-IRIE (λ = 0, κ = 5).
func Fig5(ds Dataset, cfg Config) ([]Fig5Row, error) {
	cfg = cfg.withDefaults()
	inst, err := Generate(ds, cfg, gen.Options{Kappa: 5, Lambda: 0})
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, algo := range []Algo{AlgoGreedyIRIE, AlgoTIRM} {
		alloc, _, err := RunAlgo(inst, algo, cfg)
		if err != nil {
			return nil, err
		}
		out := EvaluateAlloc(inst, alloc, cfg)
		for _, ao := range out.Ads {
			rows = append(rows, Fig5Row{
				Dataset:   ds,
				Algo:      algo,
				Ad:        ao.Name,
				Budget:    ao.Budget,
				Revenue:   ao.Revenue,
				Overshoot: ao.Overshoot,
				Seeds:     ao.Seeds,
			})
		}
	}
	return rows, nil
}

// Fig5Skew summarizes a Fig. 5 series: the max/min |overshoot| ratio the
// paper uses to argue TIRM's distribution is "much more uniform" than
// GREEDY-IRIE's.
func Fig5Skew(rows []Fig5Row, algo Algo) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, r := range rows {
		if r.Algo != algo {
			continue
		}
		a := math.Abs(r.Overshoot)
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if lo == 0 || math.IsInf(lo, 1) {
		return math.Inf(1)
	}
	return hi / lo
}

// Table2Row summarizes one dataset's advertiser parameters (Table 2).
type Table2Row struct {
	Dataset                          Dataset
	BudgetMean, BudgetMin, BudgetMax float64
	CPEMean, CPEMin, CPEMax          float64
}

// Table2 regenerates Table 2 for the quality datasets.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, ds := range QualityDatasets {
		inst, err := Generate(ds, cfg, gen.Options{})
		if err != nil {
			return nil, err
		}
		row := Table2Row{Dataset: ds, BudgetMin: math.Inf(1), CPEMin: math.Inf(1)}
		for _, ad := range inst.Ads {
			row.BudgetMean += ad.Budget
			row.CPEMean += ad.CPE
			row.BudgetMin = math.Min(row.BudgetMin, ad.Budget)
			row.BudgetMax = math.Max(row.BudgetMax, ad.Budget)
			row.CPEMin = math.Min(row.CPEMin, ad.CPE)
			row.CPEMax = math.Max(row.CPEMax, ad.CPE)
		}
		row.BudgetMean /= float64(len(inst.Ads))
		row.CPEMean /= float64(len(inst.Ads))
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig1Row reports the toy example: one allocation's exact regret.
type Fig1Row struct {
	Allocation  string
	Lambda      float64
	TotalRegret float64
	// PaperValue is the number reported in Examples 1–2 (rounded); nil,
	// and absent from JSON, for the Greedy row the paper does not report.
	PaperValue *float64 `json:",omitempty"`
}

// Fig1 reproduces the running example: exact regrets of allocations A and
// B at λ = 0 (Example 1) and λ = 0.1 (Example 2), plus what Greedy
// (Algorithm 1, exact oracle) finds on the same instance.
func Fig1(cfg Config) ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, ex := range []struct{ lambda, paperA, paperB float64 }{{0, 6.6, 2.7}, {0.1, 7.2, 3.3}} {
		inst := gen.Fig1Instance(ex.lambda)
		for _, tc := range []struct {
			name  string
			alloc *core.Allocation
			paper float64
		}{
			{"A (myopic)", gen.Fig1AllocationA(), ex.paperA},
			{"B (virality-aware)", gen.Fig1AllocationB(), ex.paperB},
		} {
			out := EvaluateAlloc(inst, tc.alloc, cfg.withDefaults())
			rows = append(rows, Fig1Row{
				Allocation:  tc.name,
				Lambda:      ex.lambda,
				TotalRegret: out.TotalRegret,
				PaperValue:  &tc.paper,
			})
		}
		res, err := core.Greedy(inst, core.NewExactFactory(inst), core.GreedyOptions{})
		if err != nil {
			return nil, err
		}
		out := EvaluateAlloc(inst, res.Alloc, cfg.withDefaults())
		rows = append(rows, Fig1Row{
			Allocation:  "Greedy (Algorithm 1)",
			Lambda:      ex.lambda,
			TotalRegret: out.TotalRegret,
		})
	}
	return rows, nil
}
