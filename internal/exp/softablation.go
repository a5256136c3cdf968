package exp

import (
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/xrand"
)

// SoftRow is one point of the ABL-SOFT ablation: the paper's Algorithm 2
// (hard first-seed set removal) against the TIRM-W extension (per-set CTP
// weights, rrset.WeightedCollection) on the same instance.
type SoftRow struct {
	Dataset Dataset
	Soft    bool
	// EstRevenue is the algorithm's internal Σ Π̂_i; MCRevenue the neutral
	// evaluation. CalibrationErr = |MCRevenue − EstRevenue| shows the
	// first-seed-credit bias that motivates the extension.
	EstRevenue, MCRevenue, CalibrationErr float64
	TotalRegret                           float64
	RegretOverBudget                      float64
	Seeds                                 int
	WallSeconds                           float64
}

// SoftAblation runs TIRM in both coverage modes on one quality dataset
// (λ = 0, κ = 1) and scores both against the same MC evaluation.
func SoftAblation(ds Dataset, cfg Config) ([]SoftRow, error) {
	cfg = cfg.withDefaults()
	inst, err := Generate(ds, cfg, gen.Options{Kappa: 1, Lambda: 0})
	if err != nil {
		return nil, err
	}
	var rows []SoftRow
	for _, soft := range []bool{false, true} {
		opts := cfg.TIRM
		opts.SoftCoverage = soft
		res, err := core.TIRM(inst, xrand.New(cfg.Seed+77), opts)
		if err != nil {
			return nil, err
		}
		out := EvaluateAlloc(inst, res.Alloc, cfg)
		row := SoftRow{
			Dataset:          ds,
			Soft:             soft,
			TotalRegret:      out.TotalRegret,
			RegretOverBudget: out.RegretOverBudget,
			Seeds:            out.TotalSeeds,
		}
		for i := range inst.Ads {
			row.EstRevenue += res.EstRevenue[i]
			row.MCRevenue += out.Ads[i].Revenue
		}
		row.CalibrationErr = math.Abs(row.MCRevenue - row.EstRevenue)
		rows = append(rows, row)
	}
	return rows, nil
}
