package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// processStart is taken as early as the program can, so setup_s counts from
// process start.
var processStart = time.Now()

// op in flight, for the hang guard's report.
var opInFlight atomic.Value

func setOp(format string, args ...any) { opInFlight.Store(fmt.Sprintf(format, args...)) }

func currentOp() string {
	if s, ok := opInFlight.Load().(string); ok {
		return s
	}
	return "start-up"
}

// metric is one reported number. N is the count of observations behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// machine describes where a result was measured; numbers from different
// machines do not compare.
type machine struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
}

func describeMachine() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// result is everything one run of one workload reports. Metrics are the
// names BENCHMARK.json lists (end-to-end ones from an untraced run,
// per-layer ones from a traced run); Extras are workload-specific numbers
// that are printed and kept but that the contract's uniform metric set has
// no place for.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Machine   machine           `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Succeeded int64             `json:"succeeded"`
	Failed    int64             `json:"failed"`
	Retried   int64             `json:"retried"`
	Checks    int               `json:"checksPassed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extras    map[string]metric `json:"extras,omitempty"`
	WallS     float64           `json:"wallSeconds"`

	twice []string // metrics set more than once
}

func newResult(workload string, seed uint64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced, Machine: describeMachine(),
		Metrics: map[string]metric{}, Extras: map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	if _, dup := r.Metrics[name]; dup {
		r.twice = append(r.twice, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setTiming reports a timing adjusted to nominal weather and, as an extra,
// the value as measured.
func (r *result) setTiming(name string, adjusted, raw float64, unit string, n int) {
	r.set(name, adjusted, unit, n)
	r.extra("raw."+name, raw, unit, n)
}

func (r *result) extra(name string, v float64, unit string, n int) {
	r.Extras[name] = metric{Value: v, Unit: unit, N: n}
}

// finish folds the run's tallies and checks into the result and checks the
// metric set against the one BENCHMARK.json promises: every name exactly
// once, finite, with its unit.
func (r *result) finish(tl *tally, ck *checks, want []metricSpec) {
	r.Attempted = tl.attempted.Load()
	r.Failed = tl.failed.Load()
	r.Retried = tl.retried.Load()
	r.Succeeded = r.Attempted - r.Failed
	for _, spec := range want {
		m, ok := r.Metrics[spec.Name]
		switch {
		case !ok:
			ck.fail("metric %s was not measured", spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			ck.fail("metric %s is %v", spec.Name, m.Value)
		case m.Unit != spec.Unit:
			ck.fail("metric %s has unit %q, BENCHMARK.json says %q", spec.Name, m.Unit, spec.Unit)
		}
	}
	for _, name := range r.twice {
		ck.fail("metric %s was emitted twice", name)
	}
	for name := range r.Metrics {
		if !hasMetric(want, name) {
			ck.fail("metric %s is not in BENCHMARK.json", name)
		}
	}
	if r.Attempted < 1 {
		ck.fail("no operation was attempted")
	}
	r.Checks = ck.passed
	r.Failures = ck.failures
	r.Correct = ck.ok() && r.Failed == 0
	r.WallS = time.Since(processStart).Seconds()
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, the operation tallies, and the checks.
func (r *result) print(w io.Writer) {
	m := r.Machine
	fmt.Fprintf(w, "# workload %s seed %d traced %v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(w, "# machine %s %s/%s nproc %d GOMAXPROCS %d cpu %q\n", m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS, m.CPUModel)
	printMetrics(w, "metric", r.Metrics)
	printMetrics(w, "extra ", r.Extras)
	fmt.Fprintf(w, "ops attempted %d succeeded %d failed %d retried %d\n", r.Attempted, r.Succeeded, r.Failed, r.Retried)
	fmt.Fprintf(w, "checks passed %d failed %d\n", r.Checks, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

func printMetrics(w io.Writer, label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "%s %-32s %14.6g %-6s n=%d\n", label, name, m.Value, m.Unit, m.N)
	}
}

// contractLine is the last line of standard output: the one JSON object the
// acceptance driver reads.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value can fail to marshal; finish has already
		// flagged it, so report the failure without the numbers.
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(data)
}

// resultPath is where a workload's full result is kept under dir.
func resultPath(dir, workload string, traced bool) string {
	mode := "e2e"
	if traced {
		mode = "layers"
	}
	return filepath.Join(dir, workload+"."+mode+".json")
}

// save writes the full result under dir.
func (r *result) save(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, r.Workload, r.Traced), append(data, '\n'), 0o644)
}
