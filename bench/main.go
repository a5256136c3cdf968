// Command bench is the repository's end-to-end benchmark: it generates a
// dataset and a request stream from a seed, drives the allocation service
// through its public entry points (serve over real loopback HTTP, the shard
// daemons, the coordinator, core and rrset), prints every metric named in
// BENCHMARK.json with its unit, checks the outputs, and exits non-zero when a
// check fails. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func hasMetric(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// specPath and outDir are relative to the repository root, the one directory
// run.sh starts the program in.
const (
	specPath = "BENCHMARK.json"
	outDir   = "bench/out"
)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: flix_warm, dblp_cold, shard_k4, lifecycle_mix, or all (one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the request stream, arrival schedule and evaluation cascades")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced layer ladder and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload N times on the same seed and report each end-to-end metric's median, quartiles and spread")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to test sizes")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(2, err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case o.repeat > 0:
		err = repeat(o, spec)
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o, spec)
	}
	if err != nil {
		fatal(1, err)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

// runOne runs one workload in this process and prints its report; the last
// line of standard output is the contract's JSON object.
func runOne(o options, spec *benchSpec) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.smoke {
		w = w.smoke()
	}
	traced := o.trace != 0
	r, err := newRun(w, o.seed, o.seconds, outDir, traced)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	body := r.endToEnd
	if traced {
		want = spec.PerLayer
		body = r.layers
	}
	if err := runDeadline(w.deadline, body); err != nil {
		r.cleanup()
		return fmt.Errorf("%s: %w", w.name, err)
	}
	r.res.finish(&r.tl, &r.ck, want)
	if err := r.res.save(outDir); err != nil {
		return err
	}
	r.res.print(os.Stdout)
	fmt.Println(r.res.contractLine())
	if !r.res.Correct {
		return fmt.Errorf("%s: output checks failed", w.name)
	}
	return nil
}

// child runs this program again for one workload, so that peak_rss_mb — a
// process-wide high-water mark — belongs to that workload alone.
func child(o options, workload string, seed uint64, trace int) *exec.Cmd {
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	return cmd
}

// runAll runs every workload, one process each: untraced, and traced as well
// when -trace is set. The combined results are written to
// bench/out/all.seed<N>.json, the form of the committed baseline.
func runAll(o options) error {
	var failed []string
	all := struct {
		Machine machine   `json:"machine"`
		Seed    uint64    `json:"seed"`
		Seconds float64   `json:"seconds"`
		Results []*result `json:"results"`
	}{describeMachine(), o.seed, o.seconds, nil}
	for _, w := range workloads {
		for trace := 0; trace <= min(o.trace, 1); trace++ {
			cmd := child(o, w.name, o.seed, trace)
			cmd.Stdout = os.Stdout
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w.name, trace, err))
				continue
			}
			data, err := os.ReadFile(resultPath(outDir, w.name, trace != 0))
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return err
			}
			all.Results = append(all.Results, &res)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("all.seed%d.json", o.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %v", failed)
	}
	return nil
}
