// Command datagen generates a synthetic dataset analogue, prints its
// statistics (Table 1 style), and optionally writes the graph as an edge
// list that round-trips through graph.ReadEdgeList.
//
// Usage:
//
//	datagen -dataset dblp -scale 0.1 -out dblp.edges
//	datagen -dataset flixster -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", "flixster", "dataset ("+gen.Names()+")")
		scale   = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "write the edge list to this file")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed uint64, out string) error {
	d, ok := gen.Lookup(dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	inst := d.Build(gen.Options{Scale: scale, Seed: seed})
	st := inst.G.Stats()
	fmt.Printf("dataset=%s scale=%.3f seed=%d\n", strings.ToUpper(dataset), scale, seed)
	fmt.Printf("nodes=%d edges=%d avg-outdeg=%.2f max-outdeg=%d max-indeg=%d\n",
		st.Nodes, st.Edges, st.AvgOutDeg, st.MaxOutDeg, st.MaxInDeg)
	fmt.Printf("ads=%d  budgets:", len(inst.Ads))
	for _, ad := range inst.Ads {
		fmt.Printf(" %.1f", ad.Budget)
	}
	fmt.Println()
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, inst.G); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return f.Close()
}
