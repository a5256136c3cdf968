// Command exprun regenerates the paper's tables and figures from the
// synthetic dataset analogues. Each experiment prints the same rows/series
// the paper reports (see EXPERIMENTS.md for the recorded comparison).
//
// Usage:
//
//	exprun -exp fig3 -dataset flixster [-scale 0.05] [-seed 1] [-evalruns 2000] [-v]
//	exprun -exp all -quick
//
// Experiments are the rows of exp.Experiments: table1 table2 fig1 fig3
// fig4 fig5 table3 fig6h fig6b table4 boost soft, and all to run every one
// in that order (DESIGN.md §5 lists what each regenerates and the formats
// it renders). Datasets are gen.Catalog's names: flixster epinions dblp
// livejournal (alias lj) fig1, for the experiments that take one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/gen"
)

func main() {
	ids := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		ids[i] = e.ID
	}
	var (
		expName  = flag.String("exp", "all", "experiment id ("+strings.Join(ids, ",")+",all)")
		dataset  = flag.String("dataset", "", "dataset ("+gen.Names()+"); default per experiment")
		scale    = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		evalRuns = flag.Int("evalruns", 2000, "Monte Carlo evaluation cascades (paper: 10000)")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		format   = flag.String("format", "table", "output format (table|json|csv)")
		soft     = flag.Bool("soft", false, "run TIRM with the soft-coverage extension (TIRM-W)")
		depth    = flag.Int("depth", 1, "TIRM candidate depth (1 = paper's Algorithm 3)")
		verbose  = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()
	outFormat, err := exp.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exprun:", err)
		os.Exit(1)
	}

	cfg := exp.Config{
		Seed:     *seed,
		Scale:    *scale,
		EvalRuns: *evalRuns,
		Verbose:  *verbose,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format, args...)
		},
	}
	cfg.TIRM.SoftCoverage = *soft
	cfg.TIRM.CandidateDepth = *depth
	if err := run(strings.ToLower(*expName), strings.ToLower(*dataset), cfg, *quick, outFormat); err != nil {
		fmt.Fprintln(os.Stderr, "exprun:", err)
		os.Exit(1)
	}
}

// run renders experiment id ("all" walks the catalog) in format f.
func run(id, dataset string, cfg exp.Config, quick bool, f exp.Format) error {
	all := id == "all"
	exps := exp.Experiments
	if !all {
		e, ok := exp.LookupExperiment(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		exps = []exp.Experiment{e}
	}
	for _, e := range exps {
		if err := e.CheckFormat(f); err != nil {
			return err
		}
	}
	for _, e := range exps {
		rep, err := e.Run(dataset, cfg, quick)
		if err == nil {
			err = rep.Write(os.Stdout, f)
		}
		switch {
		case err != nil && all:
			return fmt.Errorf("%s: %w", e.ID, err)
		case err != nil:
			return err
		case all:
			fmt.Println()
		}
	}
	return nil
}
