// Command benchdiff renders a benchstat-style delta table between two
// benchmark runs captured as `go test -json` (test2json) streams — the
// format `make bench` writes to BENCH_index.json. It powers
// `make bench-compare`, which benchmarks HEAD and diffs it against the
// committed baseline so a PR's hot-path effect is visible at a glance:
//
//	benchdiff [-max-regress pct] OLD.json NEW.json
//
// For every benchmark present in either stream it prints ns/op, B/op, and
// allocs/op side by side with the relative change; benchmarks missing from
// one side are listed as added/removed. A benchmark recorded several times
// (`-count N`) is represented by its median-ns/op run. By default the tool
// never fails on regressions (the comparison step is non-gating in CI); it
// exits non-zero only for unreadable or unparseable inputs. With
// -max-regress set, any benchmark whose ns/op regressed by more than that
// percentage additionally fails the run with exit code 3 — the opt-in
// `make bench-gate` target CI can use to hard-fail hot-path regressions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's record shape benchdiff needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// result holds one benchmark's parsed metrics.
type result struct {
	name   string
	nsOp   float64
	bOp    float64
	allocs float64
	hasMem bool
}

// gomaxprocsSuffix strips the "-N" GOMAXPROCS suffix from a benchmark
// name (and only that — names like ".../v1" keep their digits).
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// nameOnly matches the first half of a result line that test2json split in
// two ("BenchmarkFoo-8 \t", then the numbers). The repeats of a `-count N`
// run arrive this way with no Test field on either half.
var nameOnly = regexp.MustCompile(`^(Benchmark\S+)$`)

// benchLine matches a `testing.B` result line after test2json unescaping,
// e.g. "BenchmarkFoo-8   120  9532 ns/op  512 B/op  12 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+]+) ns/op(.*)$`)

// parseStream extracts benchmark results from one test2json file, one per
// benchmark name: of a benchmark's repeated runs, the one with the median
// ns/op (the upper median of an even count).
func parseStream(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	runs := map[string][]result{}
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
			return nil, fmt.Errorf("%s: not a test2json stream: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		// A result line can arrive split across events ("BenchmarkFoo \t" then
		// the numbers); stitch by looking only at lines that carry "ns/op".
		text := strings.TrimSpace(strings.ReplaceAll(ev.Output, "\t", " "))
		if m := nameOnly.FindStringSubmatch(text); m != nil {
			pending[ev.Package] = gomaxprocsSuffix.ReplaceAllString(m[1], "")
			continue
		}
		if !strings.Contains(text, "ns/op") {
			continue
		}
		name := ev.Test
		m := benchLine.FindStringSubmatch(text)
		if m == nil {
			// Continuation line: "   120  9532 ns/op ..." with the name in
			// ev.Test or on the preceding name-only line.
			if name == "" {
				name = pending[ev.Package]
			}
			m = regexp.MustCompile(`^\d+\s+([0-9.e+]+) ns/op(.*)$`).FindStringSubmatch(text)
			if m == nil || name == "" {
				continue
			}
			m = []string{m[0], name, m[1], m[2]}
		} else if name == "" {
			name = gomaxprocsSuffix.ReplaceAllString(m[1], "")
		}
		r := result{name: name}
		r.nsOp, _ = strconv.ParseFloat(m[2], 64)
		rest := m[3]
		if bm := regexp.MustCompile(`([0-9.e+]+) B/op`).FindStringSubmatch(rest); bm != nil {
			r.bOp, _ = strconv.ParseFloat(bm[1], 64)
			r.hasMem = true
		}
		if am := regexp.MustCompile(`([0-9.e+]+) allocs/op`).FindStringSubmatch(rest); am != nil {
			r.allocs, _ = strconv.ParseFloat(am[1], 64)
		}
		runs[name] = append(runs[name], r)
	}
	out := make(map[string]result, len(runs))
	for name, rs := range runs {
		sort.Slice(rs, func(i, j int) bool { return rs[i].nsOp < rs[j].nsOp })
		out[name] = rs[len(rs)/2]
	}
	return out, sc.Err()
}

// delta renders "old → new (±x%)" for one metric.
func delta(old, new float64, unit string) string {
	if old == 0 {
		return fmt.Sprintf("%s → %s %s", human(old), human(new), unit)
	}
	pct := 100 * (new - old) / old
	return fmt.Sprintf("%s → %s %s (%+.1f%%)", human(old), human(new), unit, pct)
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
	maxRegress := flag.Float64("max-regress", 0,
		"fail (exit 3) when any benchmark's ns/op regressed by more than this percentage (0 = never fail)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldRes, err := parseStream(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	newRes, err := parseStream(newPath)
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

	fmt.Printf("benchdiff: %s vs %s\n", oldPath, newPath)
	var regressed []string
	for _, n := range sorted {
		o, haveOld := oldRes[n]
		nw, haveNew := newRes[n]
		switch {
		case !haveOld:
			fmt.Printf("  %-55s added: %.0f ns/op\n", n, nw.nsOp)
		case !haveNew:
			fmt.Printf("  %-55s removed (was %.0f ns/op)\n", n, o.nsOp)
		default:
			fmt.Printf("  %-55s %s\n", n, delta(o.nsOp, nw.nsOp, "ns/op"))
			if o.hasMem || nw.hasMem {
				fmt.Printf("  %-55s %s, %s\n", "",
					delta(o.bOp, nw.bOp, "B/op"), delta(o.allocs, nw.allocs, "allocs/op"))
			}
			if *maxRegress > 0 && o.nsOp > 0 {
				if pct := 100 * (nw.nsOp - o.nsOp) / o.nsOp; pct > *maxRegress {
					regressed = append(regressed, fmt.Sprintf("%s (+%.1f%% ns/op)", n, pct))
				}
			}
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed past the %.0f%% gate:\n", len(regressed), *maxRegress)
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(3)
	}
}
