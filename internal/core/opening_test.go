package core

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"weak"

	"repro/internal/rrset"
)

// TestOpeningsConcurrentAcrossThetas: requests at two θ, interleaved on
// one index from eight goroutines, each return what the serial run at
// their θ returned — the openings they share are immutable, and the two θ
// do not evict or corrupt each other. Run under -race and at one and two
// cores by CI.
func TestOpeningsConcurrentAcrossThetas(t *testing.T) {
	inst := randomInstance(41, 120, 600, 4, 2, 0.01)
	base := TIRMOptions{MinTheta: 1000, MaxTheta: 64000}
	idx, err := BuildIndex(inst, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	var reqs [2]Request
	var want [2]allocSnapshot
	for i, eps := range []float64{0.25, 0.4} {
		o := base
		o.Eps = eps
		o.SoftCoverage = i == 1 // both collection kinds copy from the openings
		reqs[i] = Request{Opts: o}
		res, err := AllocateFromIndex(idx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.OpeningsBuilt != numSamples(idx) {
			t.Fatalf("eps %v: first request built %d openings, want one per sample — the two requests must size different θ for this test to mean anything", eps, res.OpeningsBuilt)
		}
		want[i] = snapshotOf(res)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				i := (g + it) % 2
				res, err := AllocateFromIndex(idx, reqs[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := snapshotOf(res); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, request %d diverged from its serial run:\n got %+v\nwant %+v", g, i, got, want[i])
					return
				}
				if res.OpeningsBuilt != 0 {
					t.Errorf("goroutine %d, request %d built %d openings on a θ already served", g, i, res.OpeningsBuilt)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexFootprintBoundedAcrossThetas: however many distinct θ are sent,
// an index that needs no more sampling grows by the pilot widths and by at
// most rrset.OpeningCap openings of 12 bytes a node per sample, and keeps
// answering each θ as it did the first time.
func TestIndexFootprintBoundedAcrossThetas(t *testing.T) {
	inst := randomInstance(42, 150, 700, 3, 2, 0.01)
	base := TIRMOptions{MinTheta: 1000, MaxTheta: 64000}
	built, err := BuildIndex(inst, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	// θ falls as ε rises; these steps land every ad on a different set count
	// between MinTheta and MaxTheta (checked at the end).
	ladder := make([]float64, 3*rrset.OpeningCap)
	for i := range ladder {
		ladder[i] = 0.3 + 0.03*float64(i)
	}
	request := func(eps float64) Request {
		o := base
		o.Eps = eps
		return Request{Opts: o}
	}
	// Let every θ of the ladder draw what it needs, then reload: the loaded
	// index holds all of it and nothing request-derived.
	want := make([]allocSnapshot, len(ladder))
	for i, eps := range ladder {
		res, err := AllocateFromIndex(built, request(eps))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = snapshotOf(res)
	}
	var snap bytes.Buffer
	if err := built.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadIndexSnapshot(inst, &snap)
	if err != nil {
		t.Fatal(err)
	}
	h, n := int64(numSamples(idx)), int64(inst.G.N())
	limit := idx.MemBytes() + h*8*int64(base.MinTheta) + h*rrset.OpeningCap*12*n

	builtTotal := 0
	for round := 0; round < 2; round++ {
		for i, eps := range ladder {
			res, err := AllocateFromIndex(idx, request(eps))
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSetsSampled != 0 {
				t.Fatalf("eps %v drew %d sets on the reloaded index", eps, res.TotalSetsSampled)
			}
			if got := snapshotOf(res); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d eps %v diverged:\n got %+v\nwant %+v", round, eps, got, want[i])
			}
			builtTotal += res.OpeningsBuilt
			if got := idx.MemBytes(); got > limit {
				t.Fatalf("round %d eps %v: index holds %d bytes, limit %d", round, eps, got, limit)
			}
		}
	}
	// The ladder is longer than the cap, so cycling through it misses every
	// time; were its θ not distinct the bound above would be untested.
	if wantBuilt := 2 * len(ladder) * numSamples(idx); builtTotal != wantBuilt {
		t.Fatalf("%d openings built over two rounds of %d θ, want %d: the ladder's θ are not distinct", builtTotal, len(ladder), wantBuilt)
	}
}

// TestGrownSampleDropsOldOpenings: a request whose θ outgrows the inverted
// index makes the sample swap in a rebuilt one; the index it replaces —
// and the openings requests left on it — must be garbage at the next
// collection, a parked workspace that borrowed from them notwithstanding.
func TestGrownSampleDropsOldOpenings(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	inst := randomInstance(43, 100, 500, 2, 2, 0.01)
	small := TIRMOptions{Eps: 0.5, MinTheta: 1000, MaxTheta: 64000}
	idx, err := BuildIndex(inst, 8, small)
	if err != nil {
		t.Fatal(err)
	}
	pool := &WorkspacePool{}
	if _, err := AllocateFromIndex(idx, Request{Opts: small, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	a := idx.curr.Load().ads[0]
	old := weak.Make(a.inv)
	large := small
	large.Eps = 0.2
	if _, err := AllocateFromIndex(idx, Request{Opts: large, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if swapped := func() bool { return old.Value() != a.inv }(); !swapped {
		t.Fatal("the larger θ did not outgrow the inverted index; nothing was swapped")
	}
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the replaced inverted index (and its openings) survived a GC cycle")
	}
	runtime.KeepAlive(pool)
	runtime.KeepAlive(idx)
}

// TestAdsSharingProbsShareSampler: ads drawing from one probability vector
// (by identity: same backing array) share one sampler, however they joined
// the index — cold build, AddAd, snapshot load — and an equal-valued copy
// of the vector does not.
func TestAdsSharingProbsShareSampler(t *testing.T) {
	inst := randomInstance(44, 60, 240, 3, 1, 0) // every ad is handed the same Probs slice
	opts := TIRMOptions{Eps: 0.4, MinTheta: 500, MaxTheta: 4000}
	idx, err := BuildIndex(inst, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared := func(what string, idx *Index, want int) {
		t.Helper()
		ads := idx.curr.Load().ads
		count := 0
		for _, a := range ads {
			if a.sampler == ads[0].sampler {
				count++
			}
		}
		if count != want {
			t.Fatalf("%s: %d of %d ads share ad 0's sampler, want %d", what, count, len(ads), want)
		}
	}
	shared("cold build", idx, 3)

	clone := inst.Ads[1]
	clone.Name = "clone"
	if _, err := idx.AddAd(clone, opts); err != nil {
		t.Fatal(err)
	}
	shared("after adding a clone", idx, 4)

	copied := inst.Ads[1]
	copied.Name = "copied"
	copied.Params.Probs = append([]float32(nil), copied.Params.Probs...)
	if _, err := idx.AddAd(copied, opts); err != nil {
		t.Fatal(err)
	}
	shared("after adding an equal-valued copy", idx, 4)

	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(idx.Inst(), &snap)
	if err != nil {
		t.Fatal(err)
	}
	shared("after a snapshot load", loaded, 4)

	// The first holder leaving takes nothing with it: the survivors still
	// share, and a later clone finds them.
	if err := idx.RemoveAd(0); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddAd(clone, opts); err != nil {
		t.Fatal(err)
	}
	shared("after removing ad 0 and adding another clone", idx, 4)
}
