package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// mayBeZero lists the metrics whose healthy value is 0: counts of things
// that should not happen, and work a warm sparse instance does not do.
var mayBeZero = map[string]bool{
	"shard.retries":       true,
	"shard.failovers":     true,
	"core.phase_grow_ms":  true, // a warm index never grows
	"rrset.ads_on_bitset": true, // sparse samples stay on the sparse kernel
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecContract checks BENCHMARK.json against the limits of the benchmark
// contract and against the workload table in this package.
func TestSpecContract(t *testing.T) {
	spec := mustSpec(t)
	raw, err := os.ReadFile("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload at smoke sizes, untraced and
// traced, and requires each metric BENCHMARK.json names to come out once,
// finite, non-zero and in its unit, with every output check passing.
func TestEveryMetricEmitted(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode := map[bool]string{false: "end_to_end", true: "per_layer"}[traced]
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				w := w.smoke()
				r, err := newRun(w, 1, 0.6, t.TempDir(), traced)
				if err != nil {
					t.Fatal(err)
				}
				want, body := spec.EndToEnd, r.endToEnd
				if traced {
					want, body = spec.PerLayer, r.layers
				}
				if err := runDeadline(w.deadline, body); err != nil {
					t.Fatal(err)
				}
				r.res.finish(&r.tl, &r.ck, want)
				for _, f := range r.res.Failures {
					t.Error(f)
				}
				if !r.res.Correct {
					t.Errorf("run reported correct=false (%d operations failed)", r.res.Failed)
				}
				if len(r.res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.res.Metrics[m.Name]
					if !ok {
						continue // finish has reported it
					}
					if got.Value == 0 && !mayBeZero[m.Name] {
						t.Errorf("%s is 0", m.Name)
					}
					if got.N < 1 {
						t.Errorf("%s has no samples behind it", m.Name)
					}
				}
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(r.res.contractLine()), &line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
					t.Errorf("result line: correct=%v attempted=%d failed=%d metrics=%d", line.Correct, line.Attempted, line.Failed, len(line.Metrics))
				}
				if traced {
					if _, err := os.Stat(r.outRoot + "/" + w.name + ".trace.json"); err != nil {
						t.Errorf("traced run left no span file: %v", err)
					}
				}
			})
		}
	}
}

func TestDuplicateMetricIsAFailure(t *testing.T) {
	r := newResult("w", 1, false)
	r.set("a", 1, "s", 1)
	r.set("a", 2, "s", 1)
	var ck checks
	r.finish(&tally{}, &ck, []metricSpec{{Name: "a", Unit: "s"}})
	if ck.ok() {
		t.Error("setting a metric twice passed the checks")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{39, 0.5, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true},
		{199, 0.90, true}, {200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true},
		{9999, 0.99, true}, {10000, 0.999, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 10; i >= 1; i-- {
		v = append(v, float64(i))
	}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

// TestOpenLoopTimesFromDueTime drives the open loop against a server that
// takes 30 ms per request over a single connection: the second operation,
// due at 5 ms, cannot be sent until the first returns, and its latency must
// count that wait; the third, due long after, must be sent on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	tg := target{url: srv.URL, budgets: []float64{1}}
	sched := []op{
		{kind: opSpend, due: 0},
		{kind: opSpend, due: 5 * time.Millisecond},
		{kind: opSpend, due: 200 * time.Millisecond},
	}
	var tl tally
	var ck checks
	res, _, drain := runMix(context.Background(), tg, 1, sched, 0, &mixState{}, &tl, &ck)
	if !ck.ok() || tl.attempted.Load() != 3 || tl.failed.Load() != 0 {
		t.Fatalf("attempted %d failed %d: %v", tl.attempted.Load(), tl.failed.Load(), ck.failures)
	}
	slack := 20 * time.Millisecond
	if res[0].late > slack || res[0].lat < service {
		t.Errorf("op 0: late %v lat %v", res[0].late, res[0].lat)
	}
	if res[1].late < service-5*time.Millisecond-time.Millisecond || res[1].late > service+slack {
		t.Errorf("op 1 was sent %v after its due time, want about %v", res[1].late, service-5*time.Millisecond)
	}
	if res[1].lat < res[1].late+service {
		t.Errorf("op 1: latency %v does not include the %v it waited to be sent", res[1].lat, res[1].late)
	}
	if res[2].late > slack || res[2].lat < service || res[2].lat > service+2*slack {
		t.Errorf("op 2: late %v lat %v", res[2].late, res[2].lat)
	}
	if drain < service || drain > service+2*slack {
		t.Errorf("drain %v, want about %v", drain, service)
	}
	if sustained(res, drain) {
		t.Error("a window with latencies over the limit counted as sustained")
	}
}

func TestWeatherAdjustment(t *testing.T) {
	nominal := weatherNominal.Seconds()
	if f := weatherFactor(nominal); f != 1 {
		t.Errorf("factor in nominal weather = %v, want 1", f)
	}
	// Probe four times slower: timings are taken to have stretched by
	// 4^weatherShare.
	want := math.Pow(4, -weatherShare)
	if f := weatherFactor(4 * nominal); math.Abs(f-want) > 1e-12 {
		t.Errorf("factor = %v, want %v", f, want)
	}
	var tm timings
	tm.addAll(sample{1, 2}, 0.5)
	tm.addDur(time.Second, 2)
	if sum(tm.raw) != 4 || sum(tm.adj) != 3.5 {
		t.Errorf("raw %v adjusted %v", tm.raw, tm.adj)
	}
}

func TestSpanArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "x", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "y", Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 1, Layer: "z", Start: 15, End: 25},
		{ID: 4, Parent: -1, Layer: "other", Start: 0, End: 100}, // another tree
	}
	byLayer, remainder, wall := layerTimes(spans, 0)
	want := map[string]time.Duration{"x": 20, "y": 20, "z": 10}
	var sum time.Duration
	for layer, d := range byLayer {
		if want[layer] != d {
			t.Errorf("layer %s = %d, want %d", layer, d, want[layer])
		}
		sum += d
	}
	if len(byLayer) != len(want) || remainder != 50 || wall != 100 || sum+remainder != wall {
		t.Errorf("layers %v remainder %d wall %d", byLayer, remainder, wall)
	}
	ivs := []interval{{0, 10}, {5, 12}, {20, 30}}
	if got := unionLen(ivs); got != 22 {
		t.Errorf("unionLen = %d, want 22", got)
	}
	if got := waves(ivs); got != 2 {
		t.Errorf("waves = %d, want 2", got)
	}
}

func TestSeedChecker(t *testing.T) {
	var sc seedChecker
	ok := [][]int32{{0, 1}, {1, 2}}
	if err := sc.check(ok, 2, 3, 2); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	for name, c := range map[string]struct {
		seeds [][]int32
		kappa int
	}{
		"missing list":    {[][]int32{{0}}, 1},
		"out of range":    {[][]int32{{0}, {3}}, 1},
		"negative":        {[][]int32{{0}, {-1}}, 1},
		"duplicate in ad": {[][]int32{{0, 0}, {}}, 2},
		"attention bound": {ok, 1},
	} {
		if err := sc.check(c.seeds, 2, 3, c.kappa); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := sameSeeds(ok, [][]int32{{0, 1}, {2, 1}}); err == nil {
		t.Error("sameSeeds accepted a reordered list")
	}
}
