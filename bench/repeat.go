package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// repeatLimit is the spread past which an end-to-end metric does not repeat
// well enough to keep: a tenth of its median between the quartiles.
const repeatLimit = 0.10

// repeat calibrates the benchmark: it runs each selected workload o.repeat
// times on seed o.seed, each in its own process, and prints for every
// end-to-end metric the median, the quartiles, the spread between the
// quartiles as a share of the median (the acceptance driver's formula;
// the driver applies it to ten different seeds, see the README), max÷min,
// and the bound BENCHMARK.json gives it. A metric whose spread exceeds
// repeatLimit, or a third of its bound, is flagged: the remedy is a longer
// run or demotion to a per-layer metric, not a wider bound.
func repeat(o options, spec *benchSpec) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	flagged := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			cmd := child(o, name, o.seed, 0)
			out, err := cmd.Output()
			if err != nil {
				os.Stdout.Write(out)
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			line, err := lastLine(out)
			if err != nil {
				return err
			}
			var res struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not the result object: %w", name, i+1, err)
			}
			for metric, m := range res.Metrics {
				values[metric] = append(values[metric], m.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done\n", name, i+1, o.repeat)
		}
		fmt.Printf("# %s: %d runs of seed %d, %gs windows\n", name, o.repeat, o.seed, o.seconds)
		fmt.Printf("%-20s %12s %12s %12s %8s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "max/min", "bound")
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			note := ""
			// setup_s is the one metric whose spread the driver does not
			// bound; only its median must hold.
			if m.Name != "setup_s" && (sp > repeatLimit || sp > m.Bound/3) {
				note = "  <-- does not repeat within a tenth / a third of its bound"
				flagged++
			}
			fmt.Printf("%-20s %12.6g %12.6g %12.6g %7.1f%% %8.3f %6.0f%%%s\n",
				m.Name, q1, q2, q3, sp*100, slices.Max(v)/slices.Min(v), m.Bound*100, note)
		}
	}
	if flagged > 0 {
		fmt.Printf("# %d metric/workload pairs flagged\n", flagged)
	}
	return nil
}

func lastLine(out []byte) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("run printed nothing")
	}
	return last, sc.Err()
}
