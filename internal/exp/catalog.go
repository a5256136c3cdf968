package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/gen"
)

// Experiment is one row of the experiment catalog: one paper artifact or
// ablation, the dataset it runs on unless told otherwise, how it runs at
// -quick and at full size, and the formats it renders.
type Experiment struct {
	// ID is the -exp name and the JSON document's "experiment" field.
	ID string
	// Dataset is the default dataset; "" for the experiments that build
	// their own instances (Tables 1–2, Fig. 1), which ignore the dataset.
	Dataset Dataset
	// CSVHeader is the first record of the CSV rendering; nil when the
	// experiment renders table and JSON only.
	CSVHeader []string
	run       func(ds Dataset, cfg Config, quick bool) (Report, error)
}

// Experiments is the catalog, one row per artifact, in the order
// `exprun -exp all` runs them.
var Experiments = []Experiment{
	{ID: "table1", run: func(_ Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := Table1(cfg)
		return report(rows, PrintTable1, nil), err
	}},
	{ID: "table2", run: func(_ Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := Table2(cfg)
		return report(rows, PrintTable2, nil), err
	}},
	{ID: "fig1", run: func(_ Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := Fig1(cfg)
		return report(rows, PrintFig1, nil), err
	}},
	{ID: "fig3", Dataset: Flixster, CSVHeader: qualityHeader,
		run: quality([]int{1, 2, 3, 4, 5}, []float64{0, 0.5}, "FIG3 %s: total regret vs κ", RegretColumn)},
	{ID: "fig4", Dataset: Flixster, CSVHeader: qualityHeader,
		run: quality([]int{1, 5}, []float64{0, 0.1, 0.5, 1}, "FIG4 %s: total regret vs λ", RegretColumn)},
	{ID: "fig5", Dataset: Flixster, CSVHeader: fig5Header, run: func(ds Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := Fig5(ds, cfg)
		return report(rows, PrintFig5, fig5Record), err
	}},
	{ID: "table3", Dataset: Flixster, CSVHeader: qualityHeader,
		run: quality([]int{1, 2, 3, 4, 5}, []float64{0}, "TABLE3 %s: distinct targeted nodes vs κ (λ=0)", TargetedColumn)},
	{ID: "fig6h", Dataset: DBLP, CSVHeader: scaleHeader,
		run: scale(varyH, "FIG6 %s: running time vs number of advertisers")},
	{ID: "fig6b", Dataset: DBLP, CSVHeader: scaleHeader,
		run: scale(varyBudget, "FIG6 %s: running time vs per-ad budget (h=5)")},
	{ID: "table4", Dataset: DBLP, CSVHeader: scaleHeader,
		run: scale(varyH, "TABLE4 %s: memory usage vs number of advertisers")},
	{ID: "boost", Dataset: Flixster, run: func(ds Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := Boost(ds, cfg, nil)
		return report(rows, PrintBoost, nil), err
	}},
	{ID: "soft", Dataset: Flixster, run: func(ds Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := SoftAblation(ds, cfg)
		return report(rows, PrintSoft, nil), err
	}},
}

// LookupExperiment returns the catalog row with the given id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// CheckFormat returns nil when the experiment renders f, else an error
// naming the formats it does.
func (e Experiment) CheckFormat(f Format) error {
	if f == FormatCSV && e.CSVHeader == nil {
		return fmt.Errorf("exp: %s renders table and json only, not csv", e.ID)
	}
	return nil
}

// Run runs the experiment on the named dataset: any gen.Catalog name or
// alias, or "" for the row's default.
func (e Experiment) Run(dataset string, cfg Config, quick bool) (Report, error) {
	ds := e.Dataset
	if ds != "" && dataset != "" {
		d, ok := gen.Lookup(dataset)
		if !ok {
			return Report{}, fmt.Errorf("unknown dataset %q", dataset)
		}
		ds = Dataset(strings.ToUpper(d.Name))
	}
	rep, err := e.run(ds, cfg, quick)
	rep.exp = e
	return rep, err
}

// Report is one experiment's result, ready to render.
type Report struct {
	exp     Experiment
	rows    any             // the JSON document's "rows"
	table   func(io.Writer) // the aligned human-readable table
	records [][]string      // the CSV records under exp.CSVHeader
}

// Write renders the report in format f: the aligned table, one JSON
// document (WriteJSON), or CSV under the experiment's CSVHeader.
func (r Report) Write(w io.Writer, f Format) error {
	if err := r.exp.CheckFormat(f); err != nil {
		return err
	}
	switch f {
	case FormatJSON:
		return WriteJSON(w, r.exp.ID, r.rows)
	case FormatCSV:
		return csv.NewWriter(w).WriteAll(append([][]string{r.exp.CSVHeader}, r.records...))
	}
	r.table(w)
	return nil
}

// report wraps an experiment's rows; record turns one row into its CSV
// record (nil for experiments that render no CSV).
func report[R any](rows []R, table func(io.Writer, []R), record func(R) []string) Report {
	rep := Report{rows: rows, table: func(w io.Writer) { table(w, rows) }}
	if record != nil {
		for _, r := range rows {
			rep.records = append(rep.records, record(r))
		}
	}
	return rep
}

// quality is a Fig. 3 / Fig. 4 / Table 3 row: the paper's four algorithms
// over one (κ, λ) grid, the table titled with the dataset.
func quality(kappas []int, lambdas []float64, title string, column func(QualityRow) string) func(Dataset, Config, bool) (Report, error) {
	return func(ds Dataset, cfg Config, _ bool) (Report, error) {
		rows, err := QualitySweep(ds, cfg, kappas, lambdas, nil)
		return report(rows, func(w io.Writer, rows []QualityRow) {
			PrintQuality(w, fmt.Sprintf(title, ds), rows, column)
		}, qualityRecord), err
	}
}

// scale is a Fig. 6 / Table 4 row, its table titled with the dataset.
func scale(sweep func(Dataset, Config, bool) ([]ScaleRow, error), title string) func(Dataset, Config, bool) (Report, error) {
	return func(ds Dataset, cfg Config, quick bool) (Report, error) {
		rows, err := sweep(ds, cfg, quick)
		return report(rows, func(w io.Writer, rows []ScaleRow) {
			PrintScale(w, fmt.Sprintf(title, ds), rows)
		}, scaleRecord), err
	}
}

// varyH is the h sweep: h ∈ {1, 5} at -quick, Fig6VaryH's five otherwise.
func varyH(ds Dataset, cfg Config, quick bool) ([]ScaleRow, error) {
	var hs []int
	if quick {
		hs = []int{1, 5}
	}
	return Fig6VaryH(ds, cfg, hs, nil)
}

// varyBudget is the budget sweep: two budgets at -quick, Fig6VaryBudget's
// panel otherwise.
func varyBudget(ds Dataset, cfg Config, quick bool) ([]ScaleRow, error) {
	var budgets []float64
	if quick {
		budgets = []float64{5000, 15000}
		if ds == LiveJournal {
			budgets = []float64{50000, 150000}
		}
	}
	return Fig6VaryBudget(ds, cfg, budgets, nil)
}
