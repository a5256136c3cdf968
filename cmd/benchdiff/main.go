// Command benchdiff renders a benchstat-style delta table between two
// benchmark runs captured as `go test -json` (test2json) streams — the
// format `make bench` writes to BENCH_index.json — and gates the numbers
// the weather cannot move:
//
//	benchdiff OLD.json NEW.json
//
// For every benchmark present in either stream it prints each metric side
// by side with the relative change; benchmarks missing from one side are
// listed as added/removed. A benchmark is named as the run prints it, with
// its "-N" GOMAXPROCS suffix, so runs at different core counts share no
// benchmark and two streams that share none exit 1. A benchmark recorded
// several times (`-count N`) is represented by each metric's median.
// allocs/op and every other per-op counter a benchmark reports (a unit
// ending in /op other than ns/op and B/op, such as rpcs/op, wireKB/op or
// openings/op) is gated: a median more than gateSlack past OLD's fails the
// run with exit code 3 — `make bench-gate`, which CI runs. Time, bytes and
// rates (ns/op, B/op, MB/s, ...) move with the machine and the garbage
// collector, so they are printed as advisory and never fail. Unreadable or
// unparseable inputs exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// gateSlack is the relative growth a gated counter's median may show past
// the baseline's. The make recipes run at -cpu 1, where a counter repeats
// to within a pool refill or a GC-timed allocation; with more Ps an index
// build's sampling workers overlap as they are scheduled, and its
// allocs/op spreads by several percent from run to run.
const gateSlack = 0.02

// gated reports whether a unit is a counter the gate holds.
func gated(unit string) bool {
	return strings.HasSuffix(unit, "/op") && unit != "ns/op" && unit != "B/op"
}

// event is the subset of test2json's record shape benchdiff needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// nameOnly matches the first half of a result line that test2json split in
// two ("BenchmarkFoo-8 \t", then the numbers), as the repeats of a
// `-count N` run arrive.
var nameOnly = regexp.MustCompile(`^(Benchmark\S+)$`)

// benchLine matches a `testing.B` result line after test2json unescaping,
// e.g. "BenchmarkFoo-8   120  9532 ns/op  512 B/op  12 allocs/op", with
// or without its name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+\s+)?\d+\s+(.*ns/op.*)$`)

// metric matches one "value unit" pair of a result line.
var metric = regexp.MustCompile(`([-0-9.e+]+) (\S+)`)

// parseStream extracts benchmark results from one test2json file: per
// benchmark name, each metric's median over the benchmark's runs (the upper
// median of an even count), and the units in the order the runs print them.
func parseStream(path string) (map[string]map[string]float64, map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	runs := map[string]map[string][]float64{}
	units := map[string][]string{}
	pending := map[string]string{} // package -> benchmark named by its last name-only line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nil, fmt.Errorf("%s: not a test2json stream: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		// A result line can arrive split across events ("BenchmarkFoo-2 \t"
		// then the numbers); the numbers' name is then on the preceding
		// name-only line.
		text := strings.TrimSpace(strings.ReplaceAll(ev.Output, "\t", " "))
		if m := nameOnly.FindStringSubmatch(text); m != nil {
			pending[ev.Package] = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		name := strings.TrimSpace(m[1])
		if name == "" {
			name = pending[ev.Package]
		}
		if name == "" {
			continue
		}
		if runs[name] == nil {
			runs[name] = map[string][]float64{}
		}
		for _, kv := range metric.FindAllStringSubmatch(m[2], -1) {
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				continue
			}
			if runs[name][kv[2]] == nil {
				units[name] = append(units[name], kv[2])
			}
			runs[name][kv[2]] = append(runs[name][kv[2]], v)
		}
	}
	out := make(map[string]map[string]float64, len(runs))
	for name, byUnit := range runs {
		out[name] = map[string]float64{}
		for unit, vs := range byUnit {
			slices.Sort(vs)
			out[name][unit] = vs[len(vs)/2]
		}
	}
	return out, units, sc.Err()
}

// delta renders "old → new (±x%)" for one metric, gated counters in
// full and the rest compactly.
func delta(old, new float64, unit string) string {
	f := human
	if gated(unit) {
		f = func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	}
	if old == 0 {
		return fmt.Sprintf("%s → %s %s", f(old), f(new), unit)
	}
	pct := 100 * (new - old) / old
	return fmt.Sprintf("%s → %s %s (%+.1f%%)", f(old), f(new), unit, pct)
}

// human formats a metric value compactly.
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := os.Args[1], os.Args[2]
	oldRes, _, err := parseStream(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	newRes, units, err := parseStream(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	names := map[string]bool{}
	for n := range oldRes {
		names[n] = true
	}
	for n := range newRes {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Printf("benchdiff: %s vs %s (medians; gated: allocs/op and per-op counters at +%.0f%%; advisory: the rest)\n", oldPath, newPath, 100*gateSlack)
	var regressed []string
	shared := 0
	for _, n := range sorted {
		o, haveOld := oldRes[n]
		nw, haveNew := newRes[n]
		switch {
		case !haveOld:
			fmt.Printf("  %-55s added: %.0f ns/op\n", n, nw["ns/op"])
		case !haveNew:
			fmt.Printf("  %-55s removed (was %.0f ns/op)\n", n, o["ns/op"])
		default:
			shared++
			var gate, advisory []string
			for _, unit := range units[n] {
				ov, ok := o[unit]
				if !ok {
					continue
				}
				d := delta(ov, nw[unit], unit)
				if !gated(unit) {
					advisory = append(advisory, d)
					continue
				}
				gate = append(gate, d)
				if limit := ov * (1 + gateSlack); nw[unit] > limit {
					regressed = append(regressed, fmt.Sprintf("%s: %s, limit %.1f", n, d, limit))
				}
			}
			fmt.Printf("  %-55s %s\n", n, strings.Join(gate, ", "))
			fmt.Printf("  %-55s advisory: %s\n", "", strings.Join(advisory, ", "))
		}
	}
	if shared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: the two runs share no benchmark (recorded at different -cpu?)")
		os.Exit(1)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d gated counter(s) grew past +%.0f%%:\n", len(regressed), 100*gateSlack)
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(3)
	}
}
