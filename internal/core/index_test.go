package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

func sameAllocation(t *testing.T, a, b *Allocation) {
	t.Helper()
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("allocations cover %d vs %d ads", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if len(a.Seeds[i]) != len(b.Seeds[i]) {
			t.Fatalf("ad %d: %v vs %v", i, a.Seeds[i], b.Seeds[i])
		}
		for k := range a.Seeds[i] {
			if a.Seeds[i][k] != b.Seeds[i][k] {
				t.Fatalf("ad %d seed %d: %v vs %v", i, k, a.Seeds[i], b.Seeds[i])
			}
		}
	}
}

// TestTwoStageMatchesTIRM pins the wrapper contract: TIRM must be exactly
// BuildIndex + AllocateFromIndex for the same seed and options.
func TestTwoStageMatchesTIRM(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *Instance
		opts TIRMOptions
	}{
		{"fig1", fig1Instance(t, 0), TIRMOptions{MinTheta: 5000}},
		{"fig1-soft", fig1Instance(t, 0), TIRMOptions{MinTheta: 5000, SoftCoverage: true}},
		{"random", randomInstance(31, 50, 200, 3, 2, 0.01), TIRMOptions{MinTheta: 6000, MaxTheta: 40000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := TIRM(tc.inst, xrand.New(11), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := BuildIndex(tc.inst, 11, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := AllocateFromIndex(idx, Request{Opts: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			sameAllocation(t, direct.Alloc, staged.Alloc)
			for i := range direct.EstRevenue {
				if direct.EstRevenue[i] != staged.EstRevenue[i] {
					t.Errorf("ad %d est revenue %v vs %v", i, direct.EstRevenue[i], staged.EstRevenue[i])
				}
				if direct.FinalTheta[i] != staged.FinalTheta[i] {
					t.Errorf("ad %d θ %d vs %d", i, direct.FinalTheta[i], staged.FinalTheta[i])
				}
			}
		})
	}
}

// TestAllocateFromIndexReuse runs the same request twice against one index:
// the allocations must match exactly and the second run must draw nothing.
func TestAllocateFromIndexReuse(t *testing.T) {
	inst := randomInstance(60, 50, 200, 3, 2, 0)
	idx, err := BuildIndex(inst, 5, TIRMOptions{MinTheta: 6000, MaxTheta: 40000})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Opts: TIRMOptions{MinTheta: 6000, MaxTheta: 40000}}
	first, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, first.Alloc, second.Alloc)
	if second.TotalSetsSampled != 0 {
		t.Errorf("warm run drew %d sets; index should already hold the sample", second.TotalSetsSampled)
	}
	if second.SetsReused == 0 {
		t.Error("warm run reports no reused sets")
	}
}

// TestBuildOptionsDoNotChangeStream: the sample content is a pure function
// of (instance, seed, position), so presampling depth must not affect
// allocations.
func TestBuildOptionsDoNotChangeStream(t *testing.T) {
	inst := fig1Instance(t, 0)
	opts := TIRMOptions{MinTheta: 5000}
	shallow, err := BuildIndex(inst, 3, TIRMOptions{MinTheta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := BuildIndex(inst, 3, TIRMOptions{MinTheta: 20000})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllocateFromIndex(shallow, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllocateFromIndex(deep, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, a.Alloc, b.Alloc)
}

func TestAllocateFromIndexOverrides(t *testing.T) {
	inst := fig1Instance(t, 0)
	idx, err := BuildIndex(inst, 7, TIRMOptions{MinTheta: 5000})
	if err != nil {
		t.Fatal(err)
	}
	opts := TIRMOptions{MinTheta: 5000}

	t.Run("subset", func(t *testing.T) {
		res, err := AllocateFromIndex(idx, Request{Opts: opts, Ads: []int{0, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Alloc.Seeds) != len(inst.Ads) {
			t.Fatalf("allocation covers %d ads, want %d", len(res.Alloc.Seeds), len(inst.Ads))
		}
		for _, j := range []int{1, 3} {
			if len(res.Alloc.Seeds[j]) != 0 {
				t.Errorf("unselected ad %d got seeds %v", j, res.Alloc.Seeds[j])
			}
		}
		if len(res.Alloc.Seeds[0]) == 0 {
			t.Error("selected ad 0 got no seeds")
		}
	})

	t.Run("lambda", func(t *testing.T) {
		huge := 100.0
		res, err := AllocateFromIndex(idx, Request{Opts: opts, Lambda: &huge})
		if err != nil {
			t.Fatal(err)
		}
		if res.Alloc.NumSeeds() != 0 {
			t.Errorf("λ=100 still allocated %d seeds", res.Alloc.NumSeeds())
		}
	})

	t.Run("kappa", func(t *testing.T) {
		res, err := AllocateFromIndex(idx, Request{Opts: opts, Kappa: ConstKappa(2)})
		if err != nil {
			t.Fatal(err)
		}
		relaxed := *inst
		relaxed.Kappa = ConstKappa(2)
		if err := res.Alloc.Validate(&relaxed); err != nil {
			t.Fatal(err)
		}
		base, err := AllocateFromIndex(idx, Request{Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if res.Alloc.NumSeeds() < base.Alloc.NumSeeds() {
			t.Errorf("κ=2 allocated fewer seeds (%d) than κ=1 (%d)", res.Alloc.NumSeeds(), base.Alloc.NumSeeds())
		}
	})

	t.Run("budgets", func(t *testing.T) {
		tiny := []float64{0.5, 0.5, 0.5, 0.5}
		res, err := AllocateFromIndex(idx, Request{Opts: opts, Budgets: tiny})
		if err != nil {
			t.Fatal(err)
		}
		base, err := AllocateFromIndex(idx, Request{Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if res.Alloc.NumSeeds() > base.Alloc.NumSeeds() {
			t.Errorf("tiny budgets allocated more seeds (%d) than the originals (%d)",
				res.Alloc.NumSeeds(), base.Alloc.NumSeeds())
		}
	})

	t.Run("invalid", func(t *testing.T) {
		if _, err := AllocateFromIndex(idx, Request{Opts: opts, Ads: []int{9}}); err == nil {
			t.Error("out-of-range ad subset accepted")
		}
		if _, err := AllocateFromIndex(idx, Request{Opts: opts, Budgets: []float64{1}}); err == nil {
			t.Error("short budget override accepted")
		}
		neg := -1.0
		if _, err := AllocateFromIndex(idx, Request{Opts: opts, Lambda: &neg}); err == nil {
			t.Error("negative λ accepted")
		}
		if _, err := AllocateFromIndex(idx, Request{Opts: opts, Kappa: VecKappa(make([]int32, 2))}); err == nil {
			t.Error("short κ vector accepted")
		}
	})
}

// TestIndexSnapshotRoundTrip: encode → decode → identical allocation, and a
// mismatched instance is rejected.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	inst := randomInstance(90, 40, 160, 2, 1, 0)
	opts := TIRMOptions{MinTheta: 6000, MaxTheta: 30000}
	idx, err := BuildIndex(inst, 21, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(inst, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed() != idx.Seed() {
		t.Errorf("loaded seed %d, want %d", loaded.Seed(), idx.Seed())
	}
	got, err := AllocateFromIndex(loaded, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, want.Alloc, got.Alloc)
	if got.TotalSetsSampled != 0 {
		t.Errorf("allocation on loaded snapshot drew %d sets", got.TotalSetsSampled)
	}

	other := randomInstance(91, 40, 160, 2, 1, 0)
	if _, err := LoadIndexSnapshot(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("snapshot accepted for a different instance")
	}
	if _, err := LoadIndexSnapshot(inst, bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestRetiredSnapshotsFailCleanly: files written by builds before the
// current format are refused with a plain error — a version-3, -4, -6 or
// -7 index header on its version field, a retired "RRS1" family section on its
// magic — so
// their owner rebuilds (serve's "snapshot unusable; rebuilding" path)
// instead of resuming streams from misread bytes.
func TestRetiredSnapshotsFailCleanly(t *testing.T) {
	inst := randomInstance(90, 40, 160, 2, 1, 0)
	idx, err := BuildIndex(inst, 21, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// The version-3 layout, header to first section: magic, version, seed,
	// fingerprint, ad count, per-ad stream ids, CRC32 of seed…stream ids,
	// then per-ad family sections (here an RRS1 one holding node 3).
	le := binary.LittleEndian
	payload := le.AppendUint64(nil, idx.Seed())
	payload = le.AppendUint64(payload, indexFingerprint(inst))
	payload = le.AppendUint32(payload, uint32(len(inst.Ads)))
	for j := range inst.Ads {
		payload = le.AppendUint64(payload, uint64(j))
	}
	rrs1 := []byte{0x31, 0x53, 0x52, 0x52, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0}
	v3 := le.AppendUint32(le.AppendUint32(nil, indexMagic), 3)
	v3 = append(v3, payload...)
	v3 = le.AppendUint32(v3, crc32.ChecksumIEEE(payload))
	v3 = append(v3, rrs1...)
	_, err = LoadIndexSnapshot(inst, bytes.NewReader(v3))
	if err == nil || !strings.Contains(err.Error(), "unsupported index snapshot version 3") {
		t.Fatalf("version-3 snapshot: %v, want unsupported index snapshot version", err)
	}

	// A current header in front of an RRS1 section.
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	hdrLen := 4 + 4 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 8*len(inst.Ads) + 4
	mixed := append(append([]byte{}, buf.Bytes()[:hdrLen]...), rrs1...)
	_, err = LoadIndexSnapshot(inst, bytes.NewReader(mixed))
	if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("RRS1 section: %v, want bad snapshot magic", err)
	}

	// Version 4 had today's header, but a shard's slice held round-robin
	// blocks of every ad; version 6 had it too, but one section per ad,
	// however many ads shared a sample; version 7 had no next stream id. A
	// file of any of these versions and either kind — a single node's or a
	// shard's — is refused on its version word.
	part := rrset.StreamPartition{NumShards: 2, Shard: 1}
	slot, err := BuildShardIndex(inst, 21, part)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(idx *Index, version uint32) []byte {
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		le.PutUint32(buf.Bytes()[4:], version)
		return buf.Bytes()
	}
	for _, version := range []uint32{4, 6, 7} {
		for kind, load := range map[string]func() (*Index, error){
			"single-node": func() (*Index, error) { return LoadIndexSnapshot(inst, bytes.NewReader(stamp(idx, version))) },
			"shard": func() (*Index, error) {
				return LoadShardIndexSnapshot(inst, part, bytes.NewReader(stamp(slot, version)))
			},
		} {
			want := fmt.Sprintf("unsupported index snapshot version %d", version)
			if _, err := load(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("version-%d %s snapshot: %v, want %q", version, kind, err, want)
			}
		}
	}
}

// TestSnapshotFingerprintSeesTopology: two graphs with identical node and
// edge counts and identical probability values but different wiring must
// not exchange snapshots.
func TestSnapshotFingerprintSeesTopology(t *testing.T) {
	build := func(edges [][2]int32) *Instance {
		b := graph.NewBuilder(4)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return &Instance{
			G: g,
			Ads: []Ad{{
				Name:   "a",
				Budget: 1,
				CPE:    1,
				Params: topic.ItemParams{
					Probs: []float32{0.5, 0.5, 0.5},
					CTPs:  topic.ConstCTP{Nodes: 4, P: 0.5},
				},
			}},
			Kappa: ConstKappa(1),
		}
	}
	a := build([][2]int32{{0, 1}, {1, 2}, {2, 3}})
	bInst := build([][2]int32{{0, 2}, {2, 1}, {1, 3}})

	idx, err := BuildIndex(a, 1, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexSnapshot(bInst, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("snapshot accepted across graphs with identical counts but different wiring")
	}
	if _, err := LoadIndexSnapshot(a, bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("snapshot rejected for its own instance: %v", err)
	}
}

// TestInstanceFingerprintProperties: the fingerprint depends on content
// alone — a fresh copy of a probability array the ads share hashes as the
// shared array does — and sees every change a sample depends on: one edge
// rewired to another target, one probability bit flipped in one ad, or two
// ads with different probabilities swapped.
func TestInstanceFingerprintProperties(t *testing.T) {
	withAds := func(inst *Instance, ads []Ad) *Instance {
		out := *inst
		out.Ads = ads
		return &out
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		inst := randomInstance(seed, 60, 300, 3, 1, 0)
		base := indexFingerprint(inst)

		copied := slices.Clone(inst.Ads)
		copied[1].Params.Probs = slices.Clone(copied[1].Params.Probs)
		if got := indexFingerprint(withAds(inst, copied)); got != base {
			t.Fatalf("seed %d: a fresh copy of the shared probabilities moved the fingerprint %#x → %#x", seed, base, got)
		}
		for j := range copied {
			copied[j].Params.Probs = slices.Clone(copied[j].Params.Probs)
		}
		if got := indexFingerprint(withAds(inst, copied)); got != base {
			t.Fatalf("seed %d: a private copy per ad moved the fingerprint %#x → %#x", seed, base, got)
		}

		flipped := slices.Clone(inst.Ads)
		j, e := rng.IntN(len(flipped)), rng.IntN(int(inst.G.M()))
		flipped[j].Params.Probs = slices.Clone(flipped[j].Params.Probs)
		flipped[j].Params.Probs[e] = math.Float32frombits(math.Float32bits(flipped[j].Params.Probs[e]) ^ 1<<rng.IntN(32))
		if got := indexFingerprint(withAds(inst, flipped)); got == base {
			t.Fatalf("seed %d: flipping a bit of ad %d's edge %d left the fingerprint at %#x", seed, j, e, base)
		}
		swapped := slices.Clone(flipped)
		other := (j + 1) % len(swapped)
		swapped[j], swapped[other] = swapped[other], swapped[j]
		if a, b := indexFingerprint(withAds(inst, flipped)), indexFingerprint(withAds(inst, swapped)); a == b {
			t.Fatalf("seed %d: swapping ads %d and %d left the fingerprint at %#x", seed, j, other, a)
		}

		rewired := rewireOneEdge(t, rng, inst.G)
		if rewired.M() != inst.G.M() {
			t.Fatalf("seed %d: rewiring changed the edge count %d → %d", seed, inst.G.M(), rewired.M())
		}
		moved := *inst
		moved.G = rewired
		if got := indexFingerprint(&moved); got == base {
			t.Fatalf("seed %d: rewiring one edge left the fingerprint at %#x", seed, base)
		}
	}
}

// rewireOneEdge returns g with one edge (u, v) replaced by an edge (u, w)
// g does not have.
func rewireOneEdge(t *testing.T, rng *xrand.Rand, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := int32(g.N())
	for {
		e := int64(rng.IntN(int(g.M())))
		u, _ := g.EdgeEndpoints(e)
		w := int32(rng.IntN(int(n)))
		if w == u || g.HasEdge(u, w) {
			continue
		}
		b := graph.NewBuilderHint(int(n), int(g.M()))
		for x := int32(0); x < n; x++ {
			targets, first := g.OutEdges(x)
			for i, y := range targets {
				if first+int64(i) == e {
					y = w
				}
				b.AddEdge(x, y)
			}
		}
		return b.MustBuild()
	}
}

// TestIndexGrowthDeterminism: growing the index through an allocation that
// needs a larger θ must not perturb allocations that were possible before.
func TestIndexGrowthDeterminism(t *testing.T) {
	inst := randomInstance(77, 60, 240, 1, 3, 0)
	ads := append([]Ad{}, inst.Ads...)
	ads[0].Budget = 25
	ads[0].CPE = 1
	inst.Ads = ads

	small := Request{Opts: TIRMOptions{MinTheta: 4000, MaxTheta: 8000}}
	big := Request{Opts: TIRMOptions{MinTheta: 8000, MaxTheta: 60000}}

	idx, err := BuildIndex(inst, 4, small.Opts)
	if err != nil {
		t.Fatal(err)
	}
	before, err := AllocateFromIndex(idx, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllocateFromIndex(idx, big); err != nil {
		t.Fatal(err)
	}
	after, err := AllocateFromIndex(idx, small)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocation(t, before.Alloc, after.Alloc)
	if idx.MemBytes() <= 0 {
		t.Error("index reports no memory")
	}
}
