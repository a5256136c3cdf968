package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// fastCfg keeps the workload cheap enough for -race CI runs.
func fastCfg() Config {
	return Config{
		Rounds:   10,
		EvalRuns: 200,
		Opts:     core.TIRMOptions{MinTheta: 1024, MaxTheta: 4096},
	}
}

func flixsterTiny() *core.Instance {
	return gen.Flixster(gen.Options{Seed: 3, Scale: 0.02, NumAds: 6})
}

// run is Run over flixsterTiny under leakcheck: the test fails if the
// engine Run builds — a core.Index, or an in-process cluster with its
// replicas and decorators — leaves a goroutine behind.
func run(t *testing.T, seed uint64, cfg Config) *Result {
	t.Helper()
	leakcheck.Check(t)
	res, err := Run(flixsterTiny(), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLifecycleDeterminism pins the acceptance criterion: the full
// regret-over-time trace is bit-identical across runs for a fixed seed.
func TestLifecycleDeterminism(t *testing.T) {
	a := run(t, 11, fastCfg())
	b := run(t, 11, fastCfg())
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("traces diverged for the same seed")
	}
	if !reflect.DeepEqual(a.Ads, b.Ads) {
		t.Fatal("ad fates diverged for the same seed")
	}
	if a.FinalEpoch != b.FinalEpoch || a.TotalSetsSampled != b.TotalSetsSampled {
		t.Fatalf("run stats diverged: epoch %d vs %d, sets %d vs %d",
			a.FinalEpoch, b.FinalEpoch, a.TotalSetsSampled, b.TotalSetsSampled)
	}

	c := run(t, 12, fastCfg())
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestLifecycleChurn: with certain arrivals every queued ad joins, each
// join advances the epoch and triggers a re-allocation, and the trace
// records the events.
func TestLifecycleChurn(t *testing.T) {
	cfg := fastCfg()
	cfg.InitialAds = 2
	cfg.ArrivalProb = 1
	cfg.DepartProb = -1
	res := run(t, 5, cfg)
	joins := 0
	for _, rep := range res.Trace {
		for _, ev := range rep.Events {
			if strings.HasPrefix(ev, "join:") {
				joins++
				if !rep.Reallocated {
					t.Errorf("round %d had churn but no re-allocation", rep.Round)
				}
			}
		}
	}
	if joins != 4 {
		t.Errorf("recorded %d joins, want 4 (queue of 6−2 ads, certain arrivals)", joins)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.NumAds != 6 {
		t.Errorf("final campaign count %d, want 6", last.NumAds)
	}
	if res.FinalEpoch != 1+4 {
		t.Errorf("final epoch %d, want 5 (1 + 4 joins)", res.FinalEpoch)
	}
	if len(res.Ads) != 6 {
		t.Errorf("ad fates cover %d ads, want 6", len(res.Ads))
	}
}

// TestLifecycleDepletion: with a static campaign set, engagement spend is
// monotone, residual budget is non-increasing, and spend never exceeds an
// ad's budget.
func TestLifecycleDepletion(t *testing.T) {
	cfg := fastCfg()
	cfg.Rounds = 8
	cfg.ArrivalProb = -1
	cfg.DepartProb = -1
	cfg.InitialAds = 6
	cfg.EngagementRate = 0.5
	res := run(t, 7, cfg)
	prevResidual := res.Trace[0].ResidualBudget
	prevSpent := res.Trace[0].SpentTotal
	for _, rep := range res.Trace[1:] {
		if rep.ResidualBudget > prevResidual+1e-9 {
			t.Errorf("round %d residual budget grew %.4f → %.4f with no arrivals",
				rep.Round, prevResidual, rep.ResidualBudget)
		}
		if rep.SpentTotal < prevSpent-1e-9 {
			t.Errorf("round %d cumulative spend shrank %.4f → %.4f", rep.Round, prevSpent, rep.SpentTotal)
		}
		prevResidual, prevSpent = rep.ResidualBudget, rep.SpentTotal
	}
	for _, f := range res.Ads {
		if f.Spent > f.Budget+1e-9 {
			t.Errorf("ad %s spent %.4f over budget %.4f", f.Name, f.Spent, f.Budget)
		}
	}
}

// TestLifecycleReallocationCadence: quiet rounds re-allocate on the
// configured period only, and warm re-allocations stop sampling once the
// index has absorbed the workload's θ.
func TestLifecycleReallocationCadence(t *testing.T) {
	cfg := fastCfg()
	cfg.Rounds = 9
	cfg.ReallocEvery = 4
	cfg.ArrivalProb = -1
	cfg.DepartProb = -1
	cfg.InitialAds = 4
	res := run(t, 9, cfg)
	for _, rep := range res.Trace {
		want := (rep.Round-1)%cfg.ReallocEvery == 0
		if rep.Reallocated != want {
			t.Errorf("round %d reallocated=%v, want %v", rep.Round, rep.Reallocated, want)
		}
		if rep.Reallocated && rep.Round > 1 && rep.SetsSampled != 0 {
			t.Errorf("round %d warm re-allocation drew %d sets", rep.Round, rep.SetsSampled)
		}
	}
	if res.Reallocations != 3 {
		t.Errorf("%d re-allocations over 9 rounds at cadence 4, want 3", res.Reallocations)
	}
}

func BenchmarkLifecycleSim(b *testing.B) {
	inst := flixsterTiny()
	cfg := fastCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(inst, 11, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace) != cfg.Rounds {
			b.Fatalf("trace has %d rounds", len(res.Trace))
		}
	}
}

// TestLifecycleShardedMatchesSingleNode pins the distributed hot path
// under the full lifecycle workload: running the identical event stream
// against an in-process sharded cluster (K = 2 and 3) reproduces the
// single-node trace bit for bit — every round's epoch, allocation-derived
// revenue, spend, regret, and growth accounting.
func TestLifecycleShardedMatchesSingleNode(t *testing.T) {
	single := run(t, 11, fastCfg())
	for _, k := range []int{2, 3} {
		cfg := fastCfg()
		cfg.Shards = k
		sharded := run(t, 11, cfg)
		if !reflect.DeepEqual(single.Trace, sharded.Trace) {
			t.Fatalf("K=%d: trace diverged from single-node run", k)
		}
		if !reflect.DeepEqual(single.Ads, sharded.Ads) {
			t.Fatalf("K=%d: ad fates diverged from single-node run", k)
		}
		if single.FinalEpoch != sharded.FinalEpoch || single.TotalSetsSampled != sharded.TotalSetsSampled ||
			single.Reallocations != sharded.Reallocations {
			t.Fatalf("K=%d: run stats diverged: epoch %d vs %d, sets %d vs %d, reallocs %d vs %d",
				k, single.FinalEpoch, sharded.FinalEpoch,
				single.TotalSetsSampled, sharded.TotalSetsSampled,
				single.Reallocations, sharded.Reallocations)
		}
	}
}

// TestLifecycleChaosMatches pins the robustness claim end to end: a
// replicated cluster (K = 2, R = 2) with 5% of all RPCs failing from a
// seeded chaos stream still reproduces the fault-free single-node
// lifecycle trace in every semantic field — epochs, allocations, revenue,
// spend, regret, churn events. Only the sampling accounting may move (a
// re-run re-samples on the replica that serves it), so SetsSampled is
// zeroed on both sides before comparing.
func TestLifecycleChaosMatches(t *testing.T) {
	single := run(t, 11, fastCfg())
	cfg := fastCfg()
	cfg.Shards = 2
	cfg.Replicas = 2
	cfg.ChaosSeed = 77
	chaos := run(t, 11, cfg)
	scrub := func(trace []RoundReport) []RoundReport {
		out := append([]RoundReport(nil), trace...)
		for i := range out {
			out[i].SetsSampled = 0
		}
		return out
	}
	if !reflect.DeepEqual(scrub(single.Trace), scrub(chaos.Trace)) {
		t.Fatal("chaos trace diverged from fault-free single-node run in a semantic field")
	}
	if !reflect.DeepEqual(single.Ads, chaos.Ads) {
		t.Fatal("chaos ad fates diverged from fault-free single-node run")
	}
	if single.FinalEpoch != chaos.FinalEpoch || single.Reallocations != chaos.Reallocations {
		t.Fatalf("chaos run stats diverged: epoch %d vs %d, reallocs %d vs %d",
			single.FinalEpoch, chaos.FinalEpoch, single.Reallocations, chaos.Reallocations)
	}

	// Chaos is itself deterministic: the same chaos seed replays the same
	// fault schedule and the same (accounting included) result.
	again := run(t, 11, cfg)
	if !reflect.DeepEqual(chaos.Trace, again.Trace) || chaos.TotalSetsSampled != again.TotalSetsSampled {
		t.Fatal("chaos run is not reproducible for a fixed chaos seed")
	}
}

// TestChaosRunRetainsTailTraces pins the observability claim of a chaos
// run: with a tracer attached and every volume-based retention rule
// disabled (unreachable latency threshold, effectively-off head
// sampling), the only traces that survive are the ones the tail rules
// flag — and a 5% RPC fault stream over a replicated cluster must leave
// retry-retained traces whose spans carry the healed attempts as
// retry.* events. (Deterministic failover retention is pinned at the
// serve layer, where a replica can be killed outright.) The semantic
// result must not move an inch under tracing.
func TestChaosRunRetainsTailTraces(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 2
	cfg.Replicas = 2
	cfg.ChaosSeed = 77
	bare := run(t, 11, cfg)

	tr := obs.NewTracer(obs.TracerConfig{
		Capacity:         64,
		LatencyThreshold: time.Hour,
		SampleEvery:      1 << 30,
	})
	cfg.Tracer = tr
	traced := run(t, 11, cfg)
	if !reflect.DeepEqual(bare.Trace, traced.Trace) || !reflect.DeepEqual(bare.Ads, traced.Ads) {
		t.Fatal("attaching a tracer changed the lifecycle result")
	}

	sums := tr.Summaries(0, false, 0)
	if len(sums) == 0 {
		t.Fatal("chaos run retained no traces at all")
	}
	retryTraces, retryEvents, heads := 0, 0, 0
	for _, sum := range sums {
		switch sum.Reason {
		case "failover", "retry", "error":
		case "head":
			// The deterministic head sample always keeps the first
			// unremarkable trace; with SampleEvery this large there can
			// be only one.
			if heads++; heads > 1 {
				t.Fatalf("trace %s head-sampled twice with SampleEvery maxed out", sum.ID)
			}
		default:
			t.Fatalf("trace %s retained for %q; only tail reasons possible here", sum.ID, sum.Reason)
		}
		if sum.Reason != "retry" {
			continue
		}
		retryTraces++
		td, ok := tr.Get(sum.ID)
		if !ok {
			t.Fatalf("summary lists %s but Get misses it", sum.ID)
		}
		if td.Root != "sim.allocate" {
			t.Fatalf("trace %s rooted at %q, want sim.allocate", sum.ID, td.Root)
		}
		for _, s := range td.Spans {
			for _, ev := range s.Events {
				if strings.HasPrefix(ev.Name, "retry.") {
					retryEvents++
					if _, ok := ev.Attrs["attempt"]; !ok {
						t.Fatalf("retry event missing attempt attr: %+v", ev)
					}
				}
			}
		}
	}
	if retryTraces == 0 || retryEvents == 0 {
		t.Fatalf("chaos run retained %d retry traces with %d retry events; want both > 0 (reasons: %v)",
			retryTraces, retryEvents, sums)
	}

	// A fault-free traced run retains at most the single head sample:
	// tail retention stays quiet when nothing goes wrong.
	quietTr := obs.NewTracer(obs.TracerConfig{
		Capacity:         64,
		LatencyThreshold: time.Hour,
		SampleEvery:      1 << 30,
	})
	quiet := fastCfg()
	quiet.Shards = 2
	quiet.Tracer = quietTr
	run(t, 11, quiet)
	for _, sum := range quietTr.Summaries(0, false, 0) {
		if sum.Reason != "head" {
			t.Fatalf("fault-free run retained trace %s for %q, want head only", sum.ID, sum.Reason)
		}
	}
}
