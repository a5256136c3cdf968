package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// printTable renders "== title ==" over an aligned table: the
// tab-separated header, then one line per row.
func printTable[R any](w io.Writer, title, header string, rows []R, line func(R) string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		fmt.Fprintln(tw, line(r))
	}
	tw.Flush()
}

// PrintQuality renders Fig. 3 / Fig. 4 / Table 3 rows as an aligned table:
// one line per (λ, κ) with a column per algorithm — the same series the
// paper plots.
func PrintQuality(w io.Writer, title string, rows []QualityRow, column func(QualityRow) string) {
	algos := map[Algo]bool{}
	type key struct {
		lambda float64
		kappa  int
	}
	cells := map[key]map[Algo]string{}
	var keys []key
	for _, r := range rows {
		k := key{r.Lambda, r.Kappa}
		if cells[k] == nil {
			cells[k] = map[Algo]string{}
			keys = append(keys, k)
		}
		cells[k][r.Algo] = column(r)
		algos[r.Algo] = true
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lambda != keys[j].lambda {
			return keys[i].lambda < keys[j].lambda
		}
		return keys[i].kappa < keys[j].kappa
	})
	header := "lambda\tkappa"
	var order []Algo
	for _, a := range AllAlgos {
		if algos[a] {
			order = append(order, a)
			header += "\t" + string(a)
		}
	}
	printTable(w, title, header, keys, func(k key) string {
		line := fmt.Sprintf("%.1f\t%d", k.lambda, k.kappa)
		for _, a := range order {
			line += "\t" + cells[k][a]
		}
		return line
	})
}

// RegretColumn formats total regret (and % of budget) for PrintQuality.
func RegretColumn(r QualityRow) string {
	return fmt.Sprintf("%.1f (%.1f%%)", r.TotalRegret, 100*r.RegretOverBudget)
}

// TargetedColumn formats the distinct-targeted-node count (Table 3).
func TargetedColumn(r QualityRow) string { return fmt.Sprintf("%d", r.DistinctTargeted) }

// PrintFig5 renders the per-ad overshoot distribution.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	printTable(w, "FIG5: per-ad revenue − budget (λ=0, κ=5)", "dataset\talgo\tad\tbudget\trevenue\trev−budget\tseeds", rows, func(r Fig5Row) string {
		return fmt.Sprintf("%s\t%s\t%s\t%.1f\t%.1f\t%+.1f\t%d", r.Dataset, r.Algo, r.Ad, r.Budget, r.Revenue, r.Overshoot, r.Seeds)
	})
	for _, algo := range []Algo{AlgoGreedyIRIE, AlgoTIRM} {
		if s := Fig5Skew(rows, algo); !math.IsInf(s, 1) {
			fmt.Fprintf(w, "%s max/min |rev−budget| skew: %.1f\n", algo, s)
		}
	}
}

// PrintTable1 renders dataset statistics.
func PrintTable1(w io.Writer, rows []Table1Row) {
	printTable(w, "TABLE1: dataset statistics", "dataset\t#nodes\t#edges\ttype\tmax outdeg\tavg outdeg\tgiant comp", rows, func(r Table1Row) string {
		return fmt.Sprintf("%s\t%d\t%d\t%s\t%d\t%.1f\t%.1f%%", r.Dataset, r.Nodes, r.Edges, r.Type, r.Stats.MaxOutDeg, r.Stats.AvgOutDeg, 100*r.GiantFrac)
	})
}

// PrintTable2 renders advertiser budget/CPE summaries.
func PrintTable2(w io.Writer, rows []Table2Row) {
	printTable(w, "TABLE2: advertiser budgets and cost-per-engagement", "dataset\tbudget mean\tmin\tmax\tcpe mean\tmin\tmax", rows, func(r Table2Row) string {
		return fmt.Sprintf("%s\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f", r.Dataset, r.BudgetMean, r.BudgetMin, r.BudgetMax, r.CPEMean, r.CPEMin, r.CPEMax)
	})
}

// PrintScale renders Fig. 6 / Table 4 rows.
func PrintScale(w io.Writer, title string, rows []ScaleRow) {
	printTable(w, title, "dataset\talgo\th\tbudget\ttime (s)\tmem (MB)\tseeds\tRR-sets", rows, func(r ScaleRow) string {
		return fmt.Sprintf("%s\t%s\t%d\t%.0f\t%.2f\t%.1f\t%d\t%d", r.Dataset, r.Algo, r.H, r.Budget, r.WallSeconds, float64(r.MemBytes)/1e6, r.Seeds, r.SetsSampled)
	})
}

// PrintFig1 renders the toy-example rows.
func PrintFig1(w io.Writer, rows []Fig1Row) {
	printTable(w, "FIG1/EXAMPLES 1–2: toy instance regrets", "allocation\tlambda\tregret (MC)\tpaper", rows, func(r Fig1Row) string {
		paper := "—"
		if r.PaperValue != nil {
			paper = fmt.Sprintf("%.1f", *r.PaperValue)
		}
		return fmt.Sprintf("%s\t%.1f\t%.3f\t%s", r.Allocation, r.Lambda, r.TotalRegret, paper)
	})
}

// PrintBoost renders the budget-boosting ablation.
func PrintBoost(w io.Writer, rows []BoostRow) {
	printTable(w, "BOOST: B' = (1+β)·B ablation (TIRM, λ=0, κ=1)", "dataset\tbeta\trevenue\tregret\tundershoot\tovershoot\tseeds", rows, func(r BoostRow) string {
		return fmt.Sprintf("%s\t%+.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d", r.Dataset, r.Beta, r.TotalRevenue, r.TotalRegret, r.Undershoot, r.Overshoot, r.Seeds)
	})
}

// PrintSoft renders the ABL-SOFT ablation.
func PrintSoft(w io.Writer, rows []SoftRow) {
	printTable(w, "ABL-SOFT: hard (paper Alg. 2) vs soft CTP-weighted coverage (TIRM-W)", "dataset\tmode\test revenue\tMC revenue\t|calibration err|\tregret\t% budget\tseeds", rows, func(r SoftRow) string {
		mode := "hard (paper)"
		if r.Soft {
			mode = "soft (TIRM-W)"
		}
		return fmt.Sprintf("%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\t%d", r.Dataset, mode, r.EstRevenue, r.MCRevenue, r.CalibrationErr, r.TotalRegret, 100*r.RegretOverBudget, r.Seeds)
	})
}
