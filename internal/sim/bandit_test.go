package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bandit"
)

// banditCfg pins the golden bandit workload: a static campaign set (the
// learning dynamics, not churn, are under test) re-allocating every other
// round so the estimator's overrides steer several selections.
func banditCfg(policy string) Config {
	cfg := fastCfg()
	cfg.InitialAds = 6
	cfg.ArrivalProb = -1
	cfg.DepartProb = -1
	cfg.ReallocEvery = 2
	cfg.Bandit = policy
	return cfg
}

// TestBanditTraceDeterminism pins the tentpole's acceptance criterion:
// the cumulative-regret-vs-oracle trace is bit-identical across runs for
// a fixed seed, for both learning policies — and the two policies
// genuinely differ.
func TestBanditTraceDeterminism(t *testing.T) {
	traces := map[string]*Result{}
	for _, policy := range []string{bandit.PolicyUCB, bandit.PolicyThompson} {
		a := run(t, 11, banditCfg(policy))
		b := run(t, 11, banditCfg(policy))
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatalf("%s: traces diverged for the same seed", policy)
		}
		if a.CumulativeRegret != b.CumulativeRegret {
			t.Fatalf("%s: cumulative regret diverged: %v vs %v",
				policy, a.CumulativeRegret, b.CumulativeRegret)
		}
		if !reflect.DeepEqual(a.Estimator, b.Estimator) {
			t.Fatalf("%s: estimator snapshots diverged", policy)
		}
		if a.Estimator == nil || a.Estimator.Policy != policy {
			t.Fatalf("%s: estimator snapshot missing or mislabeled: %+v", policy, a.Estimator)
		}
		// The trace must actually carry the regret curve.
		last := a.Trace[len(a.Trace)-1]
		if last.BanditRegret != a.CumulativeRegret {
			t.Fatalf("%s: final trace regret %v != result %v",
				policy, last.BanditRegret, a.CumulativeRegret)
		}
		if last.OracleRevenue == 0 || last.OracleRegret == 0 {
			t.Fatalf("%s: oracle columns empty in final round: %+v", policy, last)
		}
		traces[policy] = a
	}
	if reflect.DeepEqual(traces[bandit.PolicyUCB].Trace, traces[bandit.PolicyThompson].Trace) {
		t.Fatal("UCB and Thompson produced identical traces")
	}
}

// TestBanditShardedMatchesSingleNode: the bandit-mode trace is
// bit-identical when the identical workload runs against an in-process
// K=2 sharded cluster — estimator overrides flow through the coordinator
// exactly as through the single-node allocator.
func TestBanditShardedMatchesSingleNode(t *testing.T) {
	for _, policy := range []string{bandit.PolicyUCB, bandit.PolicyThompson} {
		single := run(t, 11, banditCfg(policy))
		cfg := banditCfg(policy)
		cfg.Shards = 2
		sharded := run(t, 11, cfg)
		if !reflect.DeepEqual(single.Trace, sharded.Trace) {
			t.Fatalf("%s K=2: trace diverged from single-node run", policy)
		}
		if single.CumulativeRegret != sharded.CumulativeRegret {
			t.Fatalf("%s K=2: cumulative regret %v vs %v",
				policy, single.CumulativeRegret, sharded.CumulativeRegret)
		}
		if !reflect.DeepEqual(single.Estimator, sharded.Estimator) {
			t.Fatalf("%s K=2: estimator snapshots diverged", policy)
		}
	}
}

// TestBanditUCBBeatsFrozenBaseline: on the pinned workload, learning the
// engagement rates accumulates less regret against the known-CPE oracle
// than the never-update baseline that keeps allocating by base CPE.
func TestBanditUCBBeatsFrozenBaseline(t *testing.T) {
	ucb := run(t, 11, banditCfg(bandit.PolicyUCB))
	frozen := run(t, 11, banditCfg(bandit.PolicyFrozen))
	if ucb.CumulativeRegret >= frozen.CumulativeRegret {
		t.Fatalf("UCB cumulative regret %v did not beat frozen baseline %v",
			ucb.CumulativeRegret, frozen.CumulativeRegret)
	}
	// The baseline still observes feedback — it just never acts on it.
	if frozen.Estimator.Events == 0 {
		t.Fatal("frozen baseline recorded no feedback events")
	}
}

// TestBanditEstimatesConverge: after the run, the estimator's smoothed
// mean for every always-live ad sits near its hidden engagement rate
// (thousands of Bernoulli impressions pin it tightly).
func TestBanditEstimatesConverge(t *testing.T) {
	res := run(t, 11, banditCfg(bandit.PolicyUCB))
	est, err := bandit.Restore(*res.Estimator)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Ads {
		q := trueEngagementRate(f.Name)
		if got := est.Mean(f.Name); math.Abs(got-q) > 0.05 {
			t.Errorf("ad %s learned mean %.4f, true rate %.4f", f.Name, got, q)
		}
	}
}

// TestBanditModeOff: the classic lifecycle carries no bandit columns and
// no estimator — the zero-value config stays byte-compatible.
func TestBanditModeOff(t *testing.T) {
	res := run(t, 11, fastCfg())
	if res.Estimator != nil || res.CumulativeRegret != 0 {
		t.Fatalf("classic run grew bandit state: %+v", res.Estimator)
	}
	for _, rep := range res.Trace {
		if rep.OracleRevenue != 0 || rep.OracleRegret != 0 || rep.BanditRegret != 0 {
			t.Fatalf("classic round %d has bandit columns: %+v", rep.Round, rep)
		}
	}
}

func TestBanditUnknownPolicy(t *testing.T) {
	cfg := fastCfg()
	cfg.Bandit = "egreedy"
	if _, err := Run(flixsterTiny(), 11, cfg); err == nil {
		t.Fatal("unknown bandit policy accepted")
	}
}
