package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/rrset"
)

// allocSnapshot captures everything a selection run reports that could
// betray cross-run state leakage or parallel nondeterminism.
type allocSnapshot struct {
	Seeds      [][]int32
	EstRevenue []float64
	FinalTheta []int
	Target     []int
	Iterations int
}

func snapshotOf(res *TIRMResult) allocSnapshot {
	return allocSnapshot{
		Seeds:      res.Alloc.Seeds,
		EstRevenue: res.EstRevenue,
		FinalTheta: res.FinalTheta,
		Target:     res.FinalSeedTarget,
		Iterations: res.Iterations,
	}
}

// TestAllocateFromIndexParallelAndPooled pins the invariant of workspace
// pooling and parallel set-up: allocations are byte-identical (seeds,
// revenue estimates, θ, seed targets, iteration counts) across (a) serial
// vs parallel per-ad set-up at any worker cap, (b) a cold workspace vs a
// pooled one reused across many requests, and (c) soft vs hard coverage
// modes each under all of the above.
func TestAllocateFromIndexParallelAndPooled(t *testing.T) {
	defer rrset.SetMaxWorkers(0)
	inst := randomInstance(123, 80, 320, 4, 2, 0.01)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}

	for _, soft := range []bool{false, true} {
		o := opts
		o.SoftCoverage = soft
		idx, err := BuildIndex(inst, 9, o)
		if err != nil {
			t.Fatal(err)
		}
		rrset.SetMaxWorkers(1)
		ref, err := AllocateFromIndex(idx, Request{Opts: o})
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotOf(ref)

		for _, workers := range []int{1, 2, 4, 0} {
			rrset.SetMaxWorkers(workers)
			// No worker outlives a request.
			t.Run(fmt.Sprintf("soft=%v/workers=%d", soft, workers), func(t *testing.T) {
				leakcheck.Check(t)
				pool := &WorkspacePool{}
				for run := 0; run < 3; run++ {
					res, err := AllocateFromIndex(idx, Request{Opts: o, Pool: pool})
					if err != nil {
						t.Fatalf("soft=%v workers=%d run=%d: %v", soft, workers, run, err)
					}
					if got := snapshotOf(res); !reflect.DeepEqual(got, want) {
						t.Fatalf("soft=%v workers=%d run=%d diverged from serial run:\n got %+v\nwant %+v",
							soft, workers, run, got, want)
					}
				}
				// Every run asks the pool exactly once, and the first finds it
				// empty. How the other two split is sync.Pool's business — a GC
				// or a P migration between put and get loses the parked
				// workspace — so the split is not asserted; what pooling buys is,
				// below.
				hits, misses := pool.Stats()
				if hits+misses != 3 || misses < 1 {
					t.Fatalf("soft=%v workers=%d: pool stats hits=%d misses=%d, want 3 in total and a first miss", soft, workers, hits, misses)
				}
			})
		}

		// What pooling is for: a run that finds its workspace parked
		// allocates a fraction of what a run on a fresh pool does. An
		// average over runs, so one lost workspace does not decide it.
		rrset.SetMaxWorkers(1)
		pool := &WorkspacePool{}
		warm := testing.AllocsPerRun(20, func() {
			if _, err := AllocateFromIndex(idx, Request{Opts: o, Pool: pool}); err != nil {
				t.Fatal(err)
			}
		})
		cold := testing.AllocsPerRun(20, func() {
			if _, err := AllocateFromIndex(idx, Request{Opts: o, Pool: &WorkspacePool{}}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("soft=%v: %.0f allocations per pooled run, %.0f per cold-workspace run", soft, warm, cold)
		if !raceDetectorOn && warm*2 > cold {
			// The race runtime drops sync.Pool puts at random.
			t.Fatalf("soft=%v: a pooled run allocates %.0f objects, a cold-workspace run %.0f — pooling saves less than half", soft, warm, cold)
		}
	}
}

// TestWorkspacePoolDefault confirms requests without an explicit pool share
// the process-wide default (the second identical request must not
// construct per-ad state from scratch — its workspace comes back warm).
func TestWorkspacePoolDefault(t *testing.T) {
	inst := randomInstance(321, 50, 200, 3, 1, 0)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 1000, MaxTheta: 8000}
	idx, err := BuildIndex(inst, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := defaultWorkspacePool.Stats()
	b, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := defaultWorkspacePool.Stats()
	if !raceDetectorOn && h1 <= h0 {
		t.Fatalf("default pool hits did not advance (%d -> %d)", h0, h1)
	}
	if !reflect.DeepEqual(a.Alloc.Seeds, b.Alloc.Seeds) {
		t.Fatal("pooled rerun diverged")
	}
}

// TestWorkspaceReleaseDropsIndexRefs guards the pool-hygiene contract: a
// parked workspace must hold no references into the index it last served
// (sample handles, views, CTP vectors), so pooling never pins a retired
// index's arenas live.
func TestWorkspaceReleaseDropsIndexRefs(t *testing.T) {
	inst := randomInstance(99, 40, 160, 2, 1, 0)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 500, MaxTheta: 4000}
	idx, err := BuildIndex(inst, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := &WorkspacePool{}
	if _, err := AllocateFromIndex(idx, Request{Opts: opts, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	ws := pool.get() // the workspace the run just parked
	for i, a := range ws.slots {
		if a.local.src != nil || a.ctps != nil || a.pilot.Widths != nil || a.pilot.KPT != nil || a.seeds != nil {
			t.Fatalf("slot %d retains index references after release", i)
		}
		if a.cov != nil || a.local.hard != nil || a.local.soft != nil {
			t.Fatalf("slot %d retains coverage state after release", i)
		}
	}
	if ws.local != (localBackend{}) {
		t.Fatal("workspace retains its backend after release")
	}
	for i := range ws.pilots[:cap(ws.pilots)] {
		if ws.pilots[i].Widths != nil || ws.covs[:cap(ws.covs)][i] != nil {
			t.Fatalf("scratch %d retains a pilot or coverage after release", i)
		}
	}
}
