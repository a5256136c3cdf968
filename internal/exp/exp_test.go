package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// fastCfg keeps harness tests quick: tiny datasets, small MC budgets.
func fastCfg() Config {
	return Config{
		Seed:     1,
		Scale:    0.02,
		EvalRuns: 300,
		TIRM:     core.TIRMOptions{Eps: 0.3, MinTheta: 4000, MaxTheta: 30000},
	}
}

func TestGenerateAllDatasets(t *testing.T) {
	cfg := fastCfg()
	for _, ds := range []Dataset{Flixster, Epinions, DBLP, LiveJournal} {
		inst, err := Generate(ds, cfg, gen.Options{Scale: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
	}
	if _, err := Generate(Dataset("nope"), cfg, gen.Options{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunAlgoAllAlgorithms(t *testing.T) {
	cfg := fastCfg()
	inst, err := Generate(Flixster, cfg, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range AllAlgos {
		alloc, stats, err := RunAlgo(inst, algo, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := alloc.Validate(inst); err != nil {
			t.Fatalf("%s invalid: %v", algo, err)
		}
		if stats.Wall <= 0 {
			t.Errorf("%s: no wall time", algo)
		}
		if algo == AlgoTIRM && stats.SetsSampled == 0 {
			t.Error("TIRM reported no RR-sets")
		}
	}
	if _, _, err := RunAlgo(inst, Algo("nope"), cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestQualityShape is the headline reproduction check: on a small
// FLIXSTER analogue, the MC-evaluated regret ordering of the paper's
// Fig. 3 must hold — TIRM and GREEDY-IRIE beat MYOPIC and MYOPIC+, and
// TIRM is the overall winner.
func TestQualityShape(t *testing.T) {
	cfg := fastCfg()
	cfg.EvalRuns = 500
	rows, err := QualitySweep(Flixster, cfg, []int{1}, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	regret := map[Algo]float64{}
	for _, r := range rows {
		regret[r.Algo] = r.TotalRegret
	}
	if regret[AlgoTIRM] >= regret[AlgoMyopic] || regret[AlgoTIRM] >= regret[AlgoMyopicPlus] {
		t.Errorf("TIRM (%.1f) does not beat MYOPIC (%.1f) / MYOPIC+ (%.1f)",
			regret[AlgoTIRM], regret[AlgoMyopic], regret[AlgoMyopicPlus])
	}
	if regret[AlgoGreedyIRIE] >= regret[AlgoMyopic] {
		t.Errorf("GREEDY-IRIE (%.1f) does not beat MYOPIC (%.1f)",
			regret[AlgoGreedyIRIE], regret[AlgoMyopic])
	}
}

func TestFig1Experiment(t *testing.T) {
	cfg := fastCfg()
	cfg.EvalRuns = 100000
	rows, err := Fig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.PaperValue == nil {
			continue // greedy row has no paper value
		}
		if math.Abs(r.TotalRegret-*r.PaperValue) > 0.15 {
			t.Errorf("%s λ=%.1f: regret %.3f vs paper %.1f", r.Allocation, r.Lambda, r.TotalRegret, *r.PaperValue)
		}
	}
}

func TestTable1(t *testing.T) {
	cfg := fastCfg()
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Nodes <= 0 || r.Edges <= 0 {
			t.Errorf("%s: empty graph", r.Dataset)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "FLIXSTER") {
		t.Error("PrintTable1 missing dataset name")
	}
}

func TestTable2(t *testing.T) {
	cfg := fastCfg()
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BudgetMin > r.BudgetMean || r.BudgetMean > r.BudgetMax {
			t.Errorf("%s: budget stats disordered: %+v", r.Dataset, r)
		}
		if r.CPEMin > r.CPEMean || r.CPEMean > r.CPEMax {
			t.Errorf("%s: CPE stats disordered: %+v", r.Dataset, r)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "cpe") {
		t.Error("PrintTable2 missing header")
	}
}

func TestFig5Rows(t *testing.T) {
	cfg := fastCfg()
	rows, err := Fig5(Flixster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 ads × 2 algorithms.
	if len(rows) != 2*gen.QualityAds {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Overshoot-(r.Revenue-r.Budget)) > 1e-9 {
			t.Error("overshoot identity broken")
		}
	}
	var buf bytes.Buffer
	PrintFig5(&buf, rows)
	if !strings.Contains(buf.String(), "TIRM") {
		t.Error("PrintFig5 missing algorithm")
	}
}

func TestFig6AndTable4(t *testing.T) {
	cfg := fastCfg()
	rows, err := Fig6VaryH(DBLP, cfg, []int{1, 2}, []Algo{AlgoTIRM})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].H != 1 || rows[1].H != 2 {
		t.Error("h column wrong")
	}
	// Table 4 trend: TIRM memory grows with h.
	if rows[1].MemBytes <= rows[0].MemBytes {
		t.Errorf("memory did not grow with h: %d vs %d", rows[0].MemBytes, rows[1].MemBytes)
	}
	bud, err := Fig6VaryBudget(DBLP, cfg, []float64{2000, 5000}, []Algo{AlgoTIRM})
	if err != nil {
		t.Fatal(err)
	}
	if len(bud) != 2 || bud[0].Budget != 2000 {
		t.Fatalf("budget rows wrong: %+v", bud)
	}
	var buf bytes.Buffer
	PrintScale(&buf, "t", rows)
	if !strings.Contains(buf.String(), "TIRM") {
		t.Error("PrintScale missing algorithm")
	}
}

func TestBoostAblation(t *testing.T) {
	cfg := fastCfg()
	rows, err := Boost(Flixster, cfg, []float64{-0.2, 0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Boosting budgets upward must not reduce revenue.
	if rows[2].TotalRevenue < rows[0].TotalRevenue-1e-9 {
		t.Errorf("β=+0.2 revenue %.2f below β=−0.2 revenue %.2f",
			rows[2].TotalRevenue, rows[0].TotalRevenue)
	}
	// Undershoot mass shrinks (or stays) as β grows.
	if rows[2].Undershoot > rows[0].Undershoot+1e-9 {
		t.Errorf("undershoot grew with β: %.2f -> %.2f", rows[0].Undershoot, rows[2].Undershoot)
	}
	var buf bytes.Buffer
	PrintBoost(&buf, rows)
	if !strings.Contains(buf.String(), "beta") {
		t.Error("PrintBoost missing header")
	}
}

func TestPrintQuality(t *testing.T) {
	rows := []QualityRow{
		{Dataset: Flixster, Algo: AlgoTIRM, Kappa: 1, Lambda: 0, TotalRegret: 10, RegretOverBudget: 0.1, DistinctTargeted: 5},
		{Dataset: Flixster, Algo: AlgoMyopic, Kappa: 1, Lambda: 0, TotalRegret: 50, RegretOverBudget: 0.5, DistinctTargeted: 9},
		{Dataset: Flixster, Algo: AlgoTIRM, Kappa: 2, Lambda: 0, TotalRegret: 8, RegretOverBudget: 0.08, DistinctTargeted: 4},
	}
	var buf bytes.Buffer
	PrintQuality(&buf, "test", rows, RegretColumn)
	s := buf.String()
	if !strings.Contains(s, "TIRM") || !strings.Contains(s, "MYOPIC") {
		t.Errorf("missing columns:\n%s", s)
	}
	buf.Reset()
	PrintQuality(&buf, "test", rows, TargetedColumn)
	if !strings.Contains(buf.String(), "5") {
		t.Error("targeted column missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.05 || c.EvalRuns != 2000 {
		t.Errorf("defaults %+v", c)
	}
	if c.TIRM.Eps != 0.2 || c.IRIE.Alpha != 0.8 {
		t.Errorf("algo defaults %+v %+v", c.TIRM, c.IRIE)
	}
}

func TestSoftAblation(t *testing.T) {
	cfg := fastCfg()
	rows, err := SoftAblation(Flixster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Soft || !rows[1].Soft {
		t.Fatalf("rows wrong: %+v", rows)
	}
	// The soft estimator must be better calibrated than the hard one.
	if rows[1].CalibrationErr > rows[0].CalibrationErr+1e-9 {
		t.Errorf("soft calibration error %.2f not below hard %.2f",
			rows[1].CalibrationErr, rows[0].CalibrationErr)
	}
	var buf bytes.Buffer
	PrintSoft(&buf, rows)
	if !strings.Contains(buf.String(), "TIRM-W") {
		t.Error("PrintSoft missing mode label")
	}
}

// TestGreedyMCBeatsBaselines runs the conceptual reference (Algorithm 1
// with MC oracle) on a tiny instance and checks it lands in the winning
// tier with TIRM, ahead of the myopic baselines.
func TestGreedyMCBeatsBaselines(t *testing.T) {
	cfg := fastCfg()
	cfg.Scale = 0.01
	cfg.GreedyMCRuns = 300
	cfg.EvalRuns = 500
	inst, err := Generate(Flixster, cfg, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	regret := map[Algo]float64{}
	for _, algo := range []Algo{AlgoGreedyMC, AlgoMyopic, AlgoMyopicPlus} {
		alloc, _, err := RunAlgo(inst, algo, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := alloc.Validate(inst); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		regret[algo] = EvaluateAlloc(inst, alloc, cfg).TotalRegret
	}
	if regret[AlgoGreedyMC] >= regret[AlgoMyopic] {
		t.Errorf("GREEDY-MC (%.1f) does not beat MYOPIC (%.1f)", regret[AlgoGreedyMC], regret[AlgoMyopic])
	}
	if regret[AlgoGreedyMC] >= regret[AlgoMyopicPlus] {
		t.Errorf("GREEDY-MC (%.1f) does not beat MYOPIC+ (%.1f)", regret[AlgoGreedyMC], regret[AlgoMyopicPlus])
	}
}
