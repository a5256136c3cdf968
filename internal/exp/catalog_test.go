package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentCatalog runs every catalog row at smoke size (scale 0.005,
// 20 cascades, fastCfg's θ bounds), quick, and renders it in every
// format: the table is non-empty, JSON decodes under
// the row's id, CSV opens with the declared header, and a format the row
// does not render is an error.
func TestExperimentCatalog(t *testing.T) {
	cfg := fastCfg()
	cfg.Scale, cfg.EvalRuns = 0.005, 20
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run("", cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.Write(&buf, FormatTable); err != nil || buf.Len() == 0 {
				t.Fatalf("table: %v (%d bytes)", err, buf.Len())
			}
			buf.Reset()
			if err := rep.Write(&buf, FormatJSON); err != nil {
				t.Fatalf("json: %v", err)
			}
			var doc struct {
				Experiment string            `json:"experiment"`
				Rows       []json.RawMessage `json:"rows"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || doc.Experiment != e.ID || len(doc.Rows) == 0 {
				t.Fatalf("json document %q with %d rows: %v", doc.Experiment, len(doc.Rows), err)
			}
			buf.Reset()
			err = rep.Write(&buf, FormatCSV)
			if e.CSVHeader == nil {
				if err == nil || !strings.Contains(err.Error(), "table and json") {
					t.Fatalf("csv on an experiment without a CSV header: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("csv: %v", err)
			}
			recs, err := csv.NewReader(&buf).ReadAll()
			if err != nil || len(recs) < 2 || !slices.Equal(recs[0], e.CSVHeader) {
				t.Fatalf("csv: %d records, header %v: %v", len(recs), recs[0], err)
			}
		})
	}
}

func TestLookupExperiment(t *testing.T) {
	for _, e := range Experiments {
		if got, ok := LookupExperiment(e.ID); !ok || got.ID != e.ID {
			t.Errorf("LookupExperiment(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
	if _, ok := LookupExperiment("all"); ok {
		t.Error(`"all" is exprun's walk over the catalog, not a row`)
	}
	fig3, _ := LookupExperiment("fig3")
	if _, err := fig3.Run("nope", Config{}, true); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLookupAlgo(t *testing.T) {
	for name, want := range map[string]Algo{
		"tirm": AlgoTIRM, "greedy-irie": AlgoGreedyIRIE, "irie": AlgoGreedyIRIE,
		"myopic": AlgoMyopic, "myopic+": AlgoMyopicPlus, "myopicplus": AlgoMyopicPlus,
		"greedy-mc": AlgoGreedyMC, "TIRM": AlgoTIRM, "MYOPIC+": AlgoMyopicPlus,
	} {
		if got, ok := LookupAlgo(name); !ok || got != want {
			t.Errorf("LookupAlgo(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	if _, ok := LookupAlgo("nope"); ok {
		t.Error("unknown algorithm resolved")
	}
}

// TestExperimentDocsNameCatalog keeps the experiment indexes and the
// catalog from drifting apart: every catalog id is named in this package's
// experiment index, in cmd/exprun's package doc, and in DESIGN.md §5's
// table.
func TestExperimentDocsNameCatalog(t *testing.T) {
	docs := map[string]string{}
	for _, file := range []string{"exp.go", "../../cmd/exprun/main.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		docs[file+" package doc"] = f.Doc.Text()
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## §5 ")
	section, _, _ = strings.Cut(section, "\n## ")
	docs["DESIGN.md §5"] = section
	for where, doc := range docs {
		for _, e := range Experiments {
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(e.ID) + `\b`).MatchString(doc) {
				t.Errorf("%s never names experiment %s", where, e.ID)
			}
		}
	}
}
