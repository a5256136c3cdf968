package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Format selects exprun's output encoding.
type Format string

// Supported output encodings.
const (
	FormatTable Format = "table" // aligned human-readable tables
	FormatJSON  Format = "json"  // one JSON document per experiment
	FormatCSV   Format = "csv"   // one CSV table per experiment
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatTable:
		return FormatTable, nil
	case FormatJSON:
		return FormatJSON, nil
	case FormatCSV:
		return FormatCSV, nil
	}
	return "", fmt.Errorf("exp: unknown format %q (table|json|csv)", s)
}

// WriteJSON emits any experiment's row slice as an indented JSON document
// wrapped with its experiment id, ready for plotting pipelines.
func WriteJSON(w io.Writer, expID string, rows interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]interface{}{
		"experiment": expID,
		"rows":       rows,
	})
}

// The CSV renderings: each a header (an Experiment's CSVHeader) and the
// record of one row under it.
var (
	qualityHeader = []string{"dataset", "algo", "kappa", "lambda", "total_regret", "regret_over_budget", "seeds", "distinct_targeted", "wall_seconds"}
	scaleHeader   = []string{"dataset", "algo", "h", "budget", "wall_seconds", "mem_bytes", "seeds", "rr_sets"}
	fig5Header    = []string{"dataset", "algo", "ad", "budget", "revenue", "overshoot", "seeds"}
)

func qualityRecord(r QualityRow) []string {
	return []string{
		string(r.Dataset), string(r.Algo),
		strconv.Itoa(r.Kappa), fmtF(r.Lambda),
		fmtF(r.TotalRegret), fmtF(r.RegretOverBudget),
		strconv.Itoa(r.Seeds), strconv.Itoa(r.DistinctTargeted),
		fmtF(r.Wall),
	}
}

func scaleRecord(r ScaleRow) []string {
	return []string{
		string(r.Dataset), string(r.Algo),
		strconv.Itoa(r.H), fmtF(r.Budget),
		fmtF(r.WallSeconds), strconv.FormatInt(r.MemBytes, 10),
		strconv.Itoa(r.Seeds), strconv.FormatInt(r.SetsSampled, 10),
	}
}

func fig5Record(r Fig5Row) []string {
	return []string{
		string(r.Dataset), string(r.Algo), r.Ad,
		fmtF(r.Budget), fmtF(r.Revenue), fmtF(r.Overshoot),
		strconv.Itoa(r.Seeds),
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
