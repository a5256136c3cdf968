package shard

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func testInstance() *core.Instance {
	return gen.Flixster(gen.Options{Seed: 1, Scale: 0.01, Kappa: 1})
}

func testOpts() core.TIRMOptions {
	return core.TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 20000}
}

// mustEqualResults asserts two allocation results for req over inst agree
// on every semantically pinned field (MemBytes differs by construction: K
// inverted indexes over slices are not one index over the union), and that
// both pass core.CheckAllocation.
func mustEqualResults(t *testing.T, label string, inst *core.Instance, req core.Request, want, got *core.TIRMResult) {
	t.Helper()
	mustEqualSemantic(t, label, inst, req, want, got)
	if want.TotalSetsSampled != got.TotalSetsSampled {
		t.Fatalf("%s: sets sampled %d vs %d", label, want.TotalSetsSampled, got.TotalSetsSampled)
	}
	if want.SetsReused != got.SetsReused {
		t.Fatalf("%s: sets reused %d vs %d", label, want.SetsReused, got.SetsReused)
	}
}

// TestShardedAllocationGolden is the tentpole's acceptance pin: for
// K ∈ {1, 2, 4, 8}, the coordinator's scatter-gather allocation over the
// in-process transport is byte-identical to core.AllocateFromIndex on a
// single-node index — seeds, revenue estimates, θ evolution, iteration
// count, and sampling/reuse accounting — across request shapes (defaults,
// budget overrides, ad subsets, residual budgets, deeper candidate
// search). Verify mode is on, so every frontier's per-shard gains are also
// cross-checked against the aggregates in flight.
func TestShardedAllocationGolden(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed = 42

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}

	lambda := 0.25
	requests := map[string]core.Request{
		"defaults": {Opts: opts},
		"overrides": {
			Opts:    core.TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 20000, CandidateDepth: 2},
			Budgets: []float64{9, 8, 7, 6, 5, 9, 8, 7, 6, 5},
			Lambda:  &lambda,
			Kappa:   core.ConstKappa(2),
		},
		"subset-residual": {
			Opts:        opts,
			Ads:         []int{0, 2, 4, 6, 8},
			SpentBudget: []float64{0, 0, 3, 0, 1e9, 0, 0.5, 0, 0, 0},
		},
	}

	for name, req := range requests {
		want, err := core.AllocateFromIndex(idx, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4, 8} {
			coord, _, err := NewLocalCluster(inst, 0, seed, k, Config{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Warm(context.Background(), opts); err != nil {
				t.Fatal(err)
			}
			got, err := coord.Allocate(context.Background(), req)
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			mustEqualResults(t, name+": K="+string(rune('0'+k)), inst, req, want, got)
		}
	}
}

// TestShardedAllocationHTTPGolden pins transport equivalence: a K=2
// cluster spoken to over HTTP produces the same bytes as the in-process
// transport (and therefore as the single node) — the protocol carries only
// integers, so serialization cannot perturb the result.
func TestShardedAllocationHTTPGolden(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed, k = 42, 2

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	_, clients := httpShards(t, seed, k, nil, nil)
	coord, err := NewCoordinator(context.Background(), clients, Config{Roster: inst, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Allocate(context.Background(), core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "http K=2", inst, core.Request{Opts: opts}, want, got)
}

// TestShardedLifecycleGolden pins mutation lockstep: after broadcast
// AddAd (roster activation and template clone) and RemoveAd mutations, a
// sharded cluster's allocation still matches a single-node index that
// underwent the identical mutation history — stream-id assignment stays
// aligned shard by shard.
func TestShardedLifecycleGolden(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	const seed, k = 7, 3
	ctx := context.Background()

	// Single node: start with 6 of the 10 ads, add two, remove one, clone
	// one from a template.
	base := *inst
	base.Ads = append([]core.Ad(nil), inst.Ads[:6]...)
	idx, err := core.BuildIndex(&base, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddAd(inst.Ads[6], opts); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(2); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddAd(inst.Ads[7], opts); err != nil {
		t.Fatal(err)
	}
	spec := AdSpec{Name: "clone", Budget: 7.5, CPE: 2.5, CTP: 0.05, Template: 1}
	cloned, err := core.CloneAd(idx.Inst(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AddAd(cloned, opts); err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	coord, shards, err := NewLocalCluster(inst, 6, seed, k, Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAdBase(ctx, 6, opts); err != nil {
		t.Fatal(err)
	}
	if err := coord.RemoveAd(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAdBase(ctx, 7, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAdSpec(ctx, spec, opts); err != nil {
		t.Fatal(err)
	}
	if coord.Epoch() != idx.Epoch() {
		t.Fatalf("cluster epoch %d, single-node %d", coord.Epoch(), idx.Epoch())
	}
	for i, s := range shards {
		if got := s.Index().Epoch(); got != idx.Epoch() {
			t.Fatalf("shard %d epoch %d, single-node %d", i, got, idx.Epoch())
		}
	}
	got, err := coord.Allocate(ctx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "lifecycle K=3", idx.Inst(), core.Request{Opts: opts}, want, got)

	// The coordinator's campaign mirror must match the single node's
	// instance ad for ad (names and budgets drive serve-layer reporting).
	mi, si := coord.Inst(), idx.Inst()
	if len(mi.Ads) != len(si.Ads) {
		t.Fatalf("mirror has %d ads, single-node %d", len(mi.Ads), len(si.Ads))
	}
	for i := range mi.Ads {
		if mi.Ads[i].Name != si.Ads[i].Name || mi.Ads[i].Budget != si.Ads[i].Budget {
			t.Fatalf("mirror ad %d = %q/%g, single-node %q/%g",
				i, mi.Ads[i].Name, mi.Ads[i].Budget, si.Ads[i].Name, si.Ads[i].Budget)
		}
	}
}

// TestShardedCloneGolden: a clone of a template ad joins the template's
// sample on its owner — it reports the template's stream id, so the
// coordinator places it on that slot, and no shard draws a set for it — and
// at K ∈ {1, 2, 4} the cluster's allocations, before and after the
// template is removed, equal a single node's under the same history.
func TestShardedCloneGolden(t *testing.T) {
	inst, opts, ctx := testInstance(), testOpts(), context.Background()
	const seed = 11
	specs := []AdSpec{
		{Name: "clone-1", Budget: 6, CPE: 2, CTP: 0.05, Template: 1},
		{Name: "clone-4", Budget: 9, CPE: 1.5, Template: 4},
	}
	// Single node: the ten ads, two clones, then template 1 removed.
	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		ad, err := core.CloneAd(idx.Inst(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.AddAd(ad, opts); err != nil {
			t.Fatal(err)
		}
	}
	streams := func(v core.EpochView) []uint64 {
		out := make([]uint64, v.NumAds())
		for j := range out {
			out[j] = v.AdStream(j)
		}
		return out
	}
	cloned := streams(idx.CurrentEpoch())
	if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 4}; !slices.Equal(cloned, want) {
		t.Fatalf("single node reports streams %v, want %v", cloned, want)
	}
	instCloned := idx.Inst()
	wantCloned, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	wantRemoved, err := core.AllocateFromIndex(idx, core.Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 4} {
		label := fmt.Sprintf("K=%d", k)
		coord, shards, err := NewLocalCluster(inst, 10, seed, k, Config{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, opts); err != nil {
			t.Fatal(err)
		}
		sampled := func() (n int64) {
			for _, s := range shards {
				n += s.Index().SetsSampled()
			}
			return n
		}
		before := sampled()
		for _, spec := range specs {
			if _, err := coord.AddAdSpec(ctx, spec, opts); err != nil {
				t.Fatal(err)
			}
		}
		if got := sampled(); got != before {
			t.Fatalf("%s: the clones drew %d sets over the shards, want 0", label, got-before)
		}
		for i, s := range shards {
			if got := s.Info().Streams; !slices.Equal(got, cloned) {
				t.Fatalf("%s: shard %d reports streams %v, want %v", label, i, got, cloned)
			}
		}
		got, err := coord.Allocate(ctx, core.Request{Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, label+" with clones", instCloned, core.Request{Opts: opts}, wantCloned, got)
		if err := coord.RemoveAd(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if got, err = coord.Allocate(ctx, core.Request{Opts: opts}); err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, label+" without template 1", idx.Inst(), core.Request{Opts: opts}, wantRemoved, got)
	}
}

// TestAddAdSamplesOnlyWhatTheCoordinatorWarms: a shard index samples
// nothing on AddAd at any K — K = 1, where the one slot's partition is the
// identity, included — so the coordinator's warm-up under the request
// options is the new ad's only sampling, and its sets, summed over the
// shards, are what a single node presamples on AddAd under those options.
func TestAddAdSamplesOnlyWhatTheCoordinatorWarms(t *testing.T) {
	inst, opts, ctx := testInstance(), testOpts(), context.Background()
	const seed = 5
	base := *inst
	base.Ads = append([]core.Ad(nil), inst.Ads[:6]...)
	idx, err := core.BuildIndex(&base, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := idx.AddAd(inst.Ads[6], opts)
	if err != nil {
		t.Fatal(err)
	}
	want := idx.NumSets(pos)
	for _, k := range []int{1, 2} {
		coord, shards, err := NewLocalCluster(inst, 6, seed, k, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if pos, err = coord.AddAdBase(ctx, 6, opts); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, s := range shards {
			got += s.Index().NumSets(pos)
		}
		if got != want {
			t.Fatalf("K = %d: the new ad holds %d sets over the shards, a single node presamples %d", k, got, want)
		}
	}
}

// TestShardedSoftCoverageRejected pins the documented limitation.
func TestShardedSoftCoverageRejected(t *testing.T) {
	inst := testInstance()
	coord, _, err := NewLocalCluster(inst, 0, 1, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.SoftCoverage = true
	if _, err := coord.Allocate(context.Background(), core.Request{Opts: opts}); err == nil {
		t.Fatal("soft coverage must be rejected by sharded allocation")
	}
}

// TestCoordinatorRefusesMutatedCluster pins the restart-safety check: a
// fresh coordinator mirrors the campaign as a roster prefix, so fronting
// a live cluster whose campaign has been mutated (positions no longer the
// roster prefix) must be refused via the campaign fingerprint instead of
// silently mis-pricing ads.
func TestCoordinatorRefusesMutatedCluster(t *testing.T) {
	inst := testInstance()
	opts := testOpts()
	ctx := context.Background()
	coord, shards, err := NewLocalCluster(inst, 6, 5, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddAdBase(ctx, 6, opts); err != nil {
		t.Fatal(err)
	}
	if err := coord.RemoveAd(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// A "restarted" coordinator over the same (still-mutated) shards:
	clients := make([]Client, len(shards))
	for i, s := range shards {
		clients[i] = LocalClient{S: s}
	}
	if _, err := NewCoordinator(ctx, clients, Config{Roster: inst}); err == nil {
		t.Fatal("coordinator accepted a mutated cluster it cannot mirror")
	}
}
