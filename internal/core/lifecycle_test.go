package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/rrset"
)

// lifecycleOpts keeps the lifecycle tests fast: small pilot, tight cap.
var lifecycleOpts = TIRMOptions{MinTheta: 4000, MaxTheta: 20000}

// TestAddAdMatchesColdBuild pins the acceptance criterion: growing a warm
// index with AddAd must yield byte-identical allocations to a cold
// BuildIndex over the same final ad set and seed, because stream ids equal
// the positions a cold build would assign (no removals in the history).
func TestAddAdMatchesColdBuild(t *testing.T) {
	full := randomInstance(123, 50, 200, 4, 2, 0.005)

	partial := *full
	partial.Ads = full.Ads[:2]
	warm, err := BuildIndex(&partial, 9, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range full.Ads[2:] {
		if _, err := warm.AddAd(ad, lifecycleOpts); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := BuildIndex(full, 9, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}

	req := Request{Opts: lifecycleOpts}
	fromWarm, err := AllocateFromIndex(warm, req)
	if err != nil {
		t.Fatal(err)
	}
	fromCold, err := AllocateFromIndex(cold, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, fromCold.Alloc, fromWarm.Alloc)
	for i := range fromCold.EstRevenue {
		if fromCold.EstRevenue[i] != fromWarm.EstRevenue[i] {
			t.Errorf("ad %d est revenue %v (cold) vs %v (warm+AddAd)", i, fromCold.EstRevenue[i], fromWarm.EstRevenue[i])
		}
		if fromCold.FinalTheta[i] != fromWarm.FinalTheta[i] {
			t.Errorf("ad %d θ %d (cold) vs %d (warm+AddAd)", i, fromCold.FinalTheta[i], fromWarm.FinalTheta[i])
		}
	}
}

// TestShardIndexAddAdSamplesNothing: an index built or loaded as one slot
// of a stream placement leaves a new ad unsampled at any partition size,
// the one-slot identity partition included — its coordinator warms the ad
// on the owner — while a single node's AddAd presamples it.
func TestShardIndexAddAdSamplesNothing(t *testing.T) {
	inst := randomInstance(7, 50, 200, 3, 2, 0.005)
	partial := *inst
	partial.Ads = inst.Ads[:2]
	for _, part := range []rrset.StreamPartition{{}, {NumShards: 1}, {NumShards: 2}, {NumShards: 2, Shard: 1}} {
		built, err := BuildShardIndex(&partial, 9, part)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := built.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadShardIndexSnapshot(&partial, part, &snap)
		if err != nil {
			t.Fatal(err)
		}
		for kind, idx := range map[string]*Index{"built": built, "loaded": loaded} {
			pos, err := idx.AddAd(inst.Ads[2], lifecycleOpts)
			if err != nil {
				t.Fatal(err)
			}
			if got := idx.NumSets(pos); got != 0 {
				t.Fatalf("%s shard index %+v: AddAd sampled %d sets", kind, part, got)
			}
		}
	}
	single, err := BuildIndex(&partial, 9, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := single.AddAd(inst.Ads[2], lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	if single.NumSets(pos) == 0 {
		t.Fatal("a single node's AddAd presampled nothing")
	}
}

// TestRemoveThenAddSameAd: removing an advertiser and re-adding the same
// spec must work, append at the end, advance the epoch, and stay
// deterministic — but the re-added ad draws a fresh stream (ids are never
// reused), so its sample need not match the departed one's.
func TestRemoveThenAddSameAd(t *testing.T) {
	inst := randomInstance(7, 40, 160, 3, 2, 0)
	idx, err := BuildIndex(inst, 3, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Epoch(); got != 1 {
		t.Fatalf("fresh index at epoch %d, want 1", got)
	}
	departed := inst.Ads[1]
	if err := idx.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	if got := idx.NumAds(); got != 2 {
		t.Fatalf("after removal NumAds = %d, want 2", got)
	}
	pos, err := idx.AddAd(departed, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 2 {
		t.Errorf("re-added ad landed at position %d, want 2 (appended)", pos)
	}
	if got := idx.Epoch(); got != 3 {
		t.Errorf("after remove+add epoch = %d, want 3", got)
	}
	curr := idx.Inst()
	wantNames := []string{inst.Ads[0].Name, inst.Ads[2].Name, departed.Name}
	for j, want := range wantNames {
		if curr.Ads[j].Name != want {
			t.Errorf("ad %d is %q, want %q", j, curr.Ads[j].Name, want)
		}
	}

	req := Request{Opts: lifecycleOpts}
	first, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Alloc.Validate(curr); err != nil {
		t.Fatal(err)
	}
	second, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, first.Alloc, second.Alloc)
	if second.TotalSetsSampled != 0 {
		t.Errorf("repeat allocation drew %d sets", second.TotalSetsSampled)
	}
}

// TestAllocationPinnedAcrossEpochSwap: a run that captured an epoch before
// a mutation finishes on exactly that view — same allocation as before the
// swap — and a request pinned with Request.Epoch is refused after the swap.
func TestAllocationPinnedAcrossEpochSwap(t *testing.T) {
	inst := randomInstance(55, 40, 160, 3, 2, 0)
	idx, err := BuildIndex(inst, 17, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Opts: lifecycleOpts}
	pinned := idx.curr.Load()
	before, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}

	extra := inst.Ads[0]
	extra.Name = "late-arrival"
	if _, err := idx.AddAd(extra, lifecycleOpts); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(0); err != nil {
		t.Fatal(err)
	}

	// The captured epoch still serves the pre-mutation campaign set.
	after, err := allocateEpoch(context.Background(), idx, pinned, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, before.Alloc, after.Alloc)
	if len(after.Alloc.Seeds) != len(inst.Ads) {
		t.Errorf("pinned run covers %d ads, want the old epoch's %d", len(after.Alloc.Seeds), len(inst.Ads))
	}

	// A request pinned to the stale epoch is refused, not misapplied.
	stale := req
	stale.Epoch = pinned.version
	if _, err := AllocateFromIndex(idx, stale); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale-epoch request returned %v, want ErrStaleEpoch", err)
	}
	fresh := req
	fresh.Epoch = idx.Epoch()
	if _, err := AllocateFromIndex(idx, fresh); err != nil {
		t.Errorf("current-epoch pinned request failed: %v", err)
	}
}

// TestResidualBudgets: spent = 0 is exactly a fresh request; spending an
// ad's full budget silences it; partial spend targets the residual.
func TestResidualBudgets(t *testing.T) {
	inst := randomInstance(91, 50, 200, 3, 2, 0)
	idx, err := BuildIndex(inst, 13, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Opts: lifecycleOpts}
	fresh, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("zero-spend-equivalent", func(t *testing.T) {
		res, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, SpentBudget: make([]float64, 3)})
		if err != nil {
			t.Fatal(err)
		}
		sameAllocation(t, fresh.Alloc, res.Alloc)
		for i := range fresh.EstRevenue {
			if fresh.EstRevenue[i] != res.EstRevenue[i] {
				t.Errorf("ad %d est revenue %v vs %v with zero spend", i, fresh.EstRevenue[i], res.EstRevenue[i])
			}
		}
	})

	t.Run("depleted-ad-gets-nothing", func(t *testing.T) {
		spent := []float64{inst.Ads[0].Budget, 0, 0}
		res, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, SpentBudget: spent})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Alloc.Seeds[0]) != 0 {
			t.Errorf("fully spent ad 0 still got seeds %v", res.Alloc.Seeds[0])
		}
		if res.FinalTheta[0] != 0 {
			t.Errorf("fully spent ad 0 paid for θ = %d", res.FinalTheta[0])
		}
	})

	t.Run("partial-spend-shrinks", func(t *testing.T) {
		spent := []float64{inst.Ads[0].Budget * 0.75, 0, 0}
		res, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, SpentBudget: spent})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Alloc.Seeds[0]) > len(fresh.Alloc.Seeds[0]) {
			t.Errorf("residual budget allocated more seeds (%d) than the full budget (%d)",
				len(res.Alloc.Seeds[0]), len(fresh.Alloc.Seeds[0]))
		}
	})

	t.Run("invalid", func(t *testing.T) {
		if _, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, SpentBudget: []float64{1}}); err == nil {
			t.Error("short spent vector accepted")
		}
		if _, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, SpentBudget: []float64{-1, 0, 0}}); err == nil {
			t.Error("negative spend accepted")
		}
	})
}

// TestLifecycleSnapshotRoundTrip: a snapshot taken after mutations carries
// the per-ad stream ids, so the reloaded index serves
// byte-identical allocations without drawing a single set.
func TestLifecycleSnapshotRoundTrip(t *testing.T) {
	inst := randomInstance(31, 40, 160, 3, 2, 0)
	idx, err := BuildIndex(inst, 21, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	extra := inst.Ads[2]
	extra.Name = "joined-late"
	// Distinct edge probabilities: the fingerprint hashes per-ad probs, so
	// the mutated campaign must not pass for the original one below.
	probs := append([]float32{}, extra.Params.Probs...)
	probs[0] = probs[0]/2 + 0.1
	extra.Params.Probs = probs
	if _, err := idx.AddAd(extra, lifecycleOpts); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	curr := idx.Inst()

	want, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(curr, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AllocateFromIndex(loaded, Request{Opts: lifecycleOpts})
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, want.Alloc, got.Alloc)
	if got.TotalSetsSampled != 0 {
		t.Errorf("allocation on reloaded mutated index drew %d sets", got.TotalSetsSampled)
	}
	// The mutated instance has its own fingerprint: the base instance must
	// no longer accept the snapshot.
	if _, err := LoadIndexSnapshot(inst, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("mutated-campaign snapshot accepted for the pre-mutation instance")
	}
	// The re-added streams survive another save/load cycle.
	if err := loaded.RemoveAd(0); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSnapshot(loaded.Inst(), bytes.NewReader(buf2.Bytes())); err != nil {
		t.Fatalf("second-generation snapshot failed to load: %v", err)
	}
}

// TestLifecycleSnapshotHeaderCorruption: the header CRC catches a
// corrupted stream id — family-section CRCs and the instance fingerprint
// cover neither, and a silently wrong stream id would make post-reload
// growth diverge from the original index undetected.
func TestLifecycleSnapshotHeaderCorruption(t *testing.T) {
	inst := randomInstance(3, 30, 90, 2, 1, 0)
	idx, err := BuildIndex(inst, 9, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSnapshot(inst, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Header layout: magic(4) version(4) seed(8) fp(8) numShards(4)
	// shard(4) numAds(4) streams… — byte 38 sits inside ad 0's stream id.
	corrupt := append([]byte{}, buf.Bytes()...)
	corrupt[38] ^= 0x01
	if _, err := LoadIndexSnapshot(inst, bytes.NewReader(corrupt)); err == nil {
		t.Error("snapshot with corrupted stream id accepted")
	}
	// A flipped CRC byte must also fail (CRC sits right after the streams).
	crcOff := 8 + 8 + 8 + 4 + 4 + 4 + 8*len(inst.Ads)
	corrupt = append([]byte{}, buf.Bytes()...)
	corrupt[crcOff] ^= 0xff
	if _, err := LoadIndexSnapshot(inst, bytes.NewReader(corrupt)); err == nil {
		t.Error("snapshot with corrupted header CRC accepted")
	}
}

// TestLifecycleMutationErrors: structural misuse is refused.
func TestLifecycleMutationErrors(t *testing.T) {
	inst := randomInstance(5, 30, 90, 2, 1, 0)
	idx, err := BuildIndex(inst, 1, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(5); err == nil {
		t.Error("out-of-range removal accepted")
	}
	bad := inst.Ads[0]
	bad.Budget = -1
	if _, err := idx.AddAd(bad, TIRMOptions{}); err == nil {
		t.Error("invalid ad accepted")
	}
	if err := idx.RemoveAd(0); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(0); err == nil {
		t.Error("removing the last ad accepted")
	}
}

// TestLifecycleConcurrency hammers allocations against concurrent campaign
// mutations — the race detector is the assertion (plus: every run must
// return a structurally consistent result for whatever epoch it captured).
func TestLifecycleConcurrency(t *testing.T) {
	inst := randomInstance(77, 40, 160, 3, 2, 0)
	opts := TIRMOptions{MinTheta: 1024, MaxTheta: 4096}
	idx, err := BuildIndex(inst, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := AllocateFromIndex(idx, Request{Opts: opts})
				if err != nil {
					t.Errorf("concurrent allocation: %v", err)
					return
				}
				if len(res.Alloc.Seeds) < 2 {
					t.Errorf("allocation covers %d ads, want ≥ 2", len(res.Alloc.Seeds))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			extra := inst.Ads[i%len(inst.Ads)]
			extra.Name = "churn"
			if _, err := idx.AddAd(extra, opts); err != nil {
				t.Errorf("concurrent AddAd: %v", err)
				return
			}
			if err := idx.RemoveAd(idx.NumAds() - 1); err != nil {
				t.Errorf("concurrent RemoveAd: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
