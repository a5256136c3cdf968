package xrand

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	// Children with different indices must differ.
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first values")
	}
	// Split is a pure function: same index twice gives the same stream.
	d1 := parent.Split(0)
	e1 := New(7).Split(0)
	v := d1.Uint64()
	if v != e1.Uint64() {
		t.Fatal("split is not a pure function of (seed, idx)")
	}
}

func TestSplitDoesNotConsumeParentState(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(3) // must not advance a
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent state")
		}
	}
}

// TestMatchesMathRandV2 pins the stream to math/rand/v2 bit for bit: Float64
// and the two coins step the PCG directly, IntN goes through the embedded
// rand.Rand over the same generator, and a million interleaved calls must
// read what the same calls read from a plain rand.New(rand.NewPCG(...)) —
// on a root stream and on a Split child.
func TestMatchesMathRandV2(t *testing.T) {
	root := New(2024)
	for _, r := range []*Rand{root, root.Split(17)} {
		ref := rand.New(rand.NewPCG(r.Seed(), splitmix64(r.Seed())))
		pick := New(5) // which call comes next, and with what argument
		for i := 0; i < 1_000_000; i++ {
			p := [...]float64{0, 1, 0.5, 1e-9, 1 - 1e-9, pick.Rand.Float64()}[pick.Rand.IntN(6)]
			var got, want any
			switch pick.Rand.IntN(4) {
			case 0:
				got, want = r.Float64(), ref.Float64()
			case 1:
				got, want = r.Bernoulli32(float32(p)), float32(p) >= 1 || float32(p) > 0 && float32(ref.Float64()) < float32(p)
			case 2:
				got, want = r.Bernoulli(p), p >= 1 || p > 0 && ref.Float64() < p
			case 3:
				n := 1 + pick.Rand.IntN(1<<20)
				got, want = r.IntN(n), ref.IntN(n)
			}
			if got != want {
				t.Fatalf("seed %d, call %d: got %v, math/rand/v2 gives %v", r.Seed(), i, got, want)
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: stream position differs after the run", r.Seed())
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.01, 0.03)
		if v < 0.01 || v >= 0.03 {
			t.Fatalf("Uniform(0.01,0.03) returned %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(1.0 / 30.0)
	}
	mean := sum / n
	if math.Abs(mean-1.0/30.0) > 0.001 {
		t.Fatalf("Exponential mean = %v, want ~%v", mean, 1.0/30.0)
	}
}

func TestExponentialClamped(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.ExponentialClamped(0.5, 1.0)
		if v < 0 || v > 1 {
			t.Fatalf("ExponentialClamped out of [0,1]: %v", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli32(0) {
			t.Fatal("Bernoulli32(0) returned true")
		}
		if !r.Bernoulli32(1) {
			t.Fatal("Bernoulli32(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) empirical rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(1000, 2.1)
	var sum float64
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d not positive: %v", i, v)
		}
		if i > 0 && v > w[i-1] {
			t.Fatalf("weights not non-increasing at %d", i)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestPowerLawWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for beta <= 1")
		}
	}()
	PowerLawWeights(10, 1.0)
}

func TestPowerLawWeightsEmpty(t *testing.T) {
	if w := PowerLawWeights(0, 2.0); w != nil {
		t.Fatalf("expected nil for n=0, got %v", w)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	if a.N() != 4 {
		t.Fatalf("N = %d, want 4", a.N())
	}
	r := New(23)
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10.0
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("outcome %d: empirical %v, want %v", i, got, want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := NewAlias([]float64{5})
	r := New(29)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias returned nonzero index")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	cases := []struct {
		name string
		w    []float64
	}{
		{"empty", nil},
		{"zero", []float64{0, 0}},
		{"negative", []float64{1, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %s weights", tc.name)
				}
			}()
			NewAlias(tc.w)
		})
	}
}

func TestAliasUniformCase(t *testing.T) {
	// All-equal weights must give a uniform sampler.
	a := NewAlias([]float64{1, 1, 1, 1, 1})
	r := New(31)
	counts := make([]int, 5)
	const n = 250000
	for i := 0; i < n; i++ {
		counts[a.Sample(r)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/n-0.2) > 0.01 {
			t.Fatalf("uniform alias outcome %d rate %v", i, float64(c)/n)
		}
	}
}

// TestCaptureRestoreReplays captures a stream part-way, draws a mixed
// sequence (IntN, Float64, Bernoulli, Perm, Skip), restores the capture into
// the same and into another Rand, and reads the sequence again bit for bit.
func TestCaptureRestoreReplays(t *testing.T) {
	r := New(31)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	st := r.Capture()
	draw := func(r *Rand) []uint64 {
		var out []uint64
		for i := 0; i < 50; i++ {
			out = append(out, uint64(r.IntN(7+i)), math.Float64bits(r.Float64()))
			if r.Bernoulli(0.3) {
				out = append(out, 1)
			}
			if i%10 == 0 {
				for _, p := range r.Perm(5 + i) {
					out = append(out, uint64(p))
				}
				r.Skip(i)
			}
		}
		return append(out, r.Uint64(), r.Split(3).Uint64())
	}
	want := draw(r)
	other := New(99)
	for _, rr := range []*Rand{r, other} {
		rr.Restore(st)
		if got := draw(rr); !slices.Equal(got, want) {
			t.Fatalf("replay from a restored capture diverged")
		}
	}
}

// TestSplitStateIsSplit holds Restore(SplitState(i)) to Split(i), and
// Capture, Restore and SplitState to no allocation.
func TestSplitStateIsSplit(t *testing.T) {
	parent := New(5)
	r := New(0)
	for idx := uint64(0); idx < 20; idx++ {
		r.Restore(parent.SplitState(idx))
		c := parent.Split(idx)
		if r.Seed() != c.Seed() {
			t.Fatalf("split %d: seed %d, want %d", idx, r.Seed(), c.Seed())
		}
		for i := 0; i < 8; i++ {
			if a, b := r.Uint64(), c.Uint64(); a != b {
				t.Fatalf("split %d step %d: %d, want %d", idx, i, a, b)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		st := r.Capture()
		r.Restore(parent.SplitState(7))
		r.Restore(st)
	}); n != 0 {
		t.Fatalf("Capture/Restore/SplitState allocate %v objects per run", n)
	}
}

// TestSkipIsDraws holds Skip(n) to n discarded Uint64 draws.
func TestSkipIsDraws(t *testing.T) {
	a, b := New(8), New(8)
	for _, n := range []int{0, 1, 10, 333} {
		a.Skip(n)
		for i := 0; i < n; i++ {
			b.Uint64()
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Skip(%d) is not %d draws", n, n)
		}
	}
}
