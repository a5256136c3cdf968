package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"
)

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"", "table", "json", "csv"} {
		if _, err := ParseFormat(s); err != nil {
			t.Errorf("ParseFormat(%q): %v", s, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestWriteJSON(t *testing.T) {
	rows := []QualityRow{{Dataset: Flixster, Algo: AlgoTIRM, Kappa: 2, TotalRegret: 12.5}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "fig3", rows); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string       `json:"experiment"`
		Rows       []QualityRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "fig3" || len(doc.Rows) != 1 || doc.Rows[0].TotalRegret != 12.5 {
		t.Errorf("round trip lost data: %+v", doc)
	}
}

// csvRecords renders rows as experiment id's CSV report and parses it back.
func csvRecords[R any](t *testing.T, id string, rows []R, record func(R) []string) [][]string {
	t.Helper()
	rep := report(rows, nil, record)
	rep.exp, _ = LookupExperiment(id)
	var buf bytes.Buffer
	if err := rep.Write(&buf, FormatCSV); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWriteQualityCSV(t *testing.T) {
	rows := []QualityRow{
		{Dataset: Flixster, Algo: AlgoTIRM, Kappa: 1, Lambda: 0.5, TotalRegret: 10, RegretOverBudget: 0.25, Seeds: 42, DistinctTargeted: 40, Wall: 1.5},
		{Dataset: Epinions, Algo: AlgoMyopic, Kappa: 5, TotalRegret: 99},
	}
	recs := csvRecords(t, "fig3", rows, qualityRecord)
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][0] != "dataset" || recs[1][1] != "TIRM" || recs[2][0] != "EPINIONS" {
		t.Errorf("csv content wrong: %v", recs)
	}
}

func TestWriteScaleCSV(t *testing.T) {
	rows := []ScaleRow{{Dataset: DBLP, Algo: AlgoTIRM, H: 5, Budget: 250, WallSeconds: 1.5, MemBytes: 1 << 20, Seeds: 100, SetsSampled: 5000}}
	recs := csvRecords(t, "fig6h", rows, scaleRecord)
	if len(recs) != 2 || recs[1][0] != "DBLP" || recs[1][5] != "1048576" {
		t.Errorf("csv content wrong: %v", recs)
	}
}

func TestWriteFig5CSV(t *testing.T) {
	rows := []Fig5Row{{Dataset: Flixster, Algo: AlgoGreedyIRIE, Ad: "ad03", Budget: 10, Revenue: 12, Overshoot: 2, Seeds: 7}}
	recs := csvRecords(t, "fig5", rows, fig5Record)
	if len(recs) != 2 || recs[1][2] != "ad03" {
		t.Errorf("csv content wrong: %v", recs)
	}
}
