package socialads_test

import (
	"math"
	"reflect"
	"testing"

	socialads "repro"
	"repro/internal/core"
	"repro/internal/rrset"
)

// goldenOpts is the configuration the pinned allocations below were
// captured under.
func goldenOpts(soft bool) socialads.TIRMOptions {
	return socialads.TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 20000, SoftCoverage: soft}
}

func goldenInstance() *socialads.Instance {
	return socialads.NewFlixster(socialads.DatasetOptions{Seed: 1, Scale: 0.01, Kappa: 1})
}

// goldenHardSeeds / goldenSoftSeeds are the exact allocations produced by
// AllocateTIRM(inst, 42, goldenOpts(·)) on the FLIXSTER analogue
// (seed 1, scale 0.01, κ=1) by the pointer-based [][]int32 representation
// that predates the flat-arena (CSR) refactor. The deterministic block
// stream guarantees the sample is a pure function of (graph, probs, seed,
// position), so any storage-layout change must reproduce these allocations
// byte for byte — if this test fails, the refactor changed behavior, not
// just layout.
var goldenHardSeeds = [][]int32{
	{97, 549, 515, 254, 376, 8, 206, 323, 86, 410, 63, 344, 182, 279, 165, 474, 487, 448},
	{122, 90, 479},
	{136, 385, 280, 434, 390, 384, 571, 560, 185, 266, 341, 153},
	{548, 594, 241, 274, 64, 593, 476, 596, 32, 342, 567, 134, 532, 281, 66, 492, 576},
	{530, 15, 270, 172, 2, 67, 514},
	{228, 490, 58, 526},
	{485, 458, 166, 599, 168, 181, 232, 481, 144, 470, 546, 366, 484, 231},
	{542, 505},
	{271, 375, 163, 260},
	{100, 383, 461, 240, 130, 36, 94, 212, 598, 432, 300, 553, 497, 27, 239, 127, 125, 437, 554, 285, 360},
}

var goldenSoftSeeds = [][]int32{
	{97, 549, 254, 515, 376, 8, 206, 323, 63, 512, 86, 410, 182, 74, 165},
	{122, 90, 479},
	{136, 385, 280, 434, 390, 571, 185, 239, 560, 384},
	{548, 594, 274, 241, 64, 476, 195, 593, 146, 32, 208, 342, 596, 329, 175},
	{530, 15, 295, 270, 172},
	{228, 490, 58, 127},
	{485, 458, 599, 166, 168, 232, 481, 181, 532, 144, 470, 366, 494},
	{542, 505},
	{271, 375, 163, 260},
	{100, 383, 59, 461, 130, 240, 36, 300, 94, 134, 598, 212, 497, 536, 432},
}

// goldenHardRevenueBits / goldenSoftRevenueBits are math.Float64bits of
// each ad's EstRevenue in the same two allocations, cold (AllocateTIRM) and
// warm (AllocateFromIndex) alike. The seeds alone would let a walk reorder
// the float operations behind a revenue estimate and still pass; these make
// every golden bit-exact in its revenues too.
var goldenHardRevenueBits = []uint64{
	0x40179143f91f4c92, 0x40062e4d1d71841b, 0x40128cd00eed99e7, 0x40106923c8d4cc0e, 0x401155ff30f00abb,
	0x4003aea8cae665ef, 0x40113b205a9df9ba, 0x4012ce5734bb293d, 0x4001f1a7ac342664, 0x4017407aa49067b2,
}

var goldenSoftRevenueBits = []uint64{
	0x40177fa8ad3dce4c, 0x400701b07ca85c5d, 0x40123421b550666b, 0x40108b77fd4d5ff4, 0x4010afbe6d76a608,
	0x400391d5cb63cf92, 0x40104d8139325f47, 0x40134ac40ea96230, 0x400306f91f8063ac, 0x4016bb4ed60b1a26,
}

// TestAllocationPinnedAcrossRepresentations is the equivalence regression
// for the arena refactor: for a fixed seed, TIRM's allocation must be
// byte-identical to the pre-refactor representation's output, in both
// coverage modes, and AllocateFromIndex on a prebuilt index must agree —
// seeds and revenue bits both, and each result must pass
// core.CheckAllocation.
func TestAllocationPinnedAcrossRepresentations(t *testing.T) {
	inst := goldenInstance()
	for _, tc := range []struct {
		name     string
		soft     bool
		want     [][]int32
		wantBits []uint64
	}{
		{"hard", false, goldenHardSeeds, goldenHardRevenueBits},
		{"soft", true, goldenSoftSeeds, goldenSoftRevenueBits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := socialads.AllocRequest{Opts: goldenOpts(tc.soft)}
			check := func(run string, res *socialads.TIRMResult) {
				t.Helper()
				if !reflect.DeepEqual(res.Alloc.Seeds, tc.want) {
					t.Fatalf("%s allocation diverged from the pinned pre-refactor output:\n got %v\nwant %v",
						run, res.Alloc.Seeds, tc.want)
				}
				bits := make([]uint64, len(res.EstRevenue))
				for j, r := range res.EstRevenue {
					bits[j] = math.Float64bits(r)
				}
				if !reflect.DeepEqual(bits, tc.wantBits) {
					t.Fatalf("%s revenue bits diverged from the pinned output:\n got %#x\nwant %#x", run, bits, tc.wantBits)
				}
				if err := core.CheckAllocation(inst, req, res); err != nil {
					t.Fatalf("%s allocation: %v", run, err)
				}
			}
			res, err := socialads.AllocateTIRM(inst, 42, goldenOpts(tc.soft))
			if err != nil {
				t.Fatal(err)
			}
			check("cold", res)
			idx, err := socialads.BuildIndex(inst, 42, goldenOpts(tc.soft))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := socialads.AllocateFromIndex(idx, req)
			if err != nil {
				t.Fatal(err)
			}
			check("warm", warm)
		})
	}
}

// TestShippedDatasetsSelectSparse pins the traffic the cover-kernel rule
// (rrset.Inverted.PrepareCover: bitset iff 64·memberships ≥ n·θ) actually
// sees: RR sets under the paper's probability models are tiny, so no
// shipped dataset puts a single ad on the bitset kernel, while the Fig. 1
// toy (n ≤ 64, where any set holds ≥ n/64 members) puts all of them there.
// A generator or rule change that starts selecting bitset on a real
// dataset fails here — it needs a benchmark workload on the dense side
// before it ships (ROADMAP item 0).
func TestShippedDatasetsSelectSparse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inst  *socialads.Instance
		dense bool
	}{
		{"flixster", socialads.NewFlixster(socialads.DatasetOptions{Seed: 1, Scale: 0.02}), false},
		{"epinions", socialads.NewEpinions(socialads.DatasetOptions{Seed: 2, Scale: 0.02}), false},
		{"dblp", socialads.NewDBLP(socialads.DatasetOptions{Seed: 3, Scale: 0.02}), false},
		{"fig1", socialads.Fig1Instance(0), true},
	} {
		res, err := socialads.AllocateTIRM(tc.inst, 42, goldenOpts(false))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h, want := len(tc.inst.Ads), 0
		if tc.dense {
			want = h
		}
		if got := res.KernelCounts[rrset.KernelBitset]; got != want {
			t.Errorf("%s (n=%d, h=%d): %d ads on the bitset kernel, want %d", tc.name, tc.inst.G.N(), h, got, want)
		}
	}
}
