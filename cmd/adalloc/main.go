// Command adalloc runs a single ad-allocation end to end: generate (or
// load) a dataset, allocate seeds with the chosen algorithm, and print the
// per-advertiser outcome (revenue vs budget, regret, seed counts) from a
// neutral Monte Carlo evaluation.
//
// Usage:
//
//	adalloc -dataset flixster -algo tirm -scale 0.05 -kappa 1 -lambda 0
//	adalloc -dataset dblp -algo greedy-irie -ads 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/rrset"
)

func main() {
	var (
		dataset  = flag.String("dataset", "flixster", "dataset ("+gen.Names()+")")
		algoName = flag.String("algo", "tirm", "algorithm (tirm,greedy-irie,myopic,myopic+,greedy-mc; aliases irie,myopicplus)")
		scale    = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		kappa    = flag.Int("kappa", 1, "attention bound κ for every user")
		lambda   = flag.Float64("lambda", 0, "seed penalty λ")
		ads      = flag.Int("ads", 0, "number of advertisers (0 = dataset default)")
		budget   = flag.Float64("budget", 0, "per-ad budget override (pre-scale)")
		evalRuns = flag.Int("evalruns", 2000, "Monte Carlo evaluation cascades")
		saveTo   = flag.String("save", "", "write the allocation (with provenance) to this JSON file")
		loadFrom = flag.String("load", "", "skip allocating; evaluate the allocation stored in this JSON file")
		workers  = flag.Int("workers", 0, "cap on RR-sampling worker goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()
	rrset.SetMaxWorkers(*workers)
	if err := run(*dataset, *algoName, *scale, *seed, *kappa, *lambda, *ads, *budget, *evalRuns, *saveTo, *loadFrom); err != nil {
		fmt.Fprintln(os.Stderr, "adalloc:", err)
		os.Exit(1)
	}
}

func run(dataset, algoName string, scale float64, seed uint64, kappa int, lambda float64, ads int, budget float64, evalRuns int, saveTo, loadFrom string) error {
	cfg := exp.Config{Seed: seed, Scale: scale, EvalRuns: evalRuns}

	opts := gen.Options{Scale: scale, Seed: seed + 1, Kappa: kappa, Lambda: lambda, NumAds: ads, BudgetOverride: budget}

	d, ok := gen.Lookup(dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	realInst := d.Build(opts)
	algo, ok := exp.LookupAlgo(algoName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", algoName)
	}

	fmt.Printf("dataset=%s n=%d m=%d ads=%d κ=%d λ=%.2f total budget=%.1f\n",
		strings.ToUpper(dataset), realInst.G.N(), realInst.G.M(), len(realInst.Ads), kappa, lambda, realInst.TotalBudget())

	var alloc *core.Allocation
	if loadFrom != "" {
		f, err := os.Open(loadFrom)
		if err != nil {
			return err
		}
		loaded, meta, err := core.ReadAllocation(f, realInst)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", loadFrom, err)
		}
		alloc = loaded
		fmt.Printf("loaded allocation from %s (algo=%s seed=%d)\n", loadFrom, meta.Algo, meta.Seed)
	} else {
		var stats exp.RunStats
		var err error
		alloc, stats, err = exp.RunAlgo(realInst, algo, cfg)
		if err != nil {
			return err
		}
		if err := alloc.Validate(realInst); err != nil {
			return fmt.Errorf("%s produced an invalid allocation: %v", algo, err)
		}
		fmt.Printf("%s: %.2fs, %d seeds, %d distinct users", algo, stats.Wall.Seconds(), alloc.NumSeeds(), alloc.DistinctTargeted())
		if stats.SetsSampled > 0 {
			fmt.Printf(", %d RR-sets (%.1f MB)", stats.SetsSampled, float64(stats.MemBytes)/1e6)
		}
		fmt.Println()
	}
	if saveTo != "" {
		f, err := os.Create(saveTo)
		if err != nil {
			return err
		}
		meta := core.AllocationFile{
			Dataset: strings.ToLower(dataset), Seed: seed, Scale: scale,
			Kappa: kappa, Lambda: lambda, Algo: string(algo),
		}
		if err := core.WriteAllocation(f, realInst, alloc, meta); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved allocation to %s\n", saveTo)
	}
	out := exp.EvaluateAlloc(realInst, alloc, cfg)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ad\tbudget\trevenue\trev−budget\tregret\tseeds")
	for _, ao := range out.Ads {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%+.1f\t%.2f\t%d\n",
			ao.Name, ao.Budget, ao.Revenue, ao.Overshoot, ao.Regret, ao.Seeds)
	}
	tw.Flush()
	fmt.Printf("TOTAL regret %.2f (%.1f%% of budget)\n", out.TotalRegret, 100*out.RegretOverBudget)
	return nil
}
