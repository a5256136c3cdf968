package topic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewDistValid(t *testing.T) {
	d, err := NewDist([]float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	if d.K() != 3 {
		t.Fatalf("K = %d", d.K())
	}
}

func TestNewDistErrors(t *testing.T) {
	cases := []struct {
		name string
		w    []float64
	}{
		{"empty", nil},
		{"negative", []float64{0.5, -0.5, 1.0}},
		{"not-normalized", []float64{0.5, 0.6}},
		{"nan", []float64{math.NaN(), 1}},
	}
	for _, tc := range cases {
		if _, err := NewDist(tc.w); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestConcentrated(t *testing.T) {
	d := Concentrated(10, 3, 0.91)
	if math.Abs(d[3]-0.91) > 1e-12 {
		t.Fatalf("main mass %v", d[3])
	}
	for z, w := range d {
		if z != 3 && math.Abs(w-0.01) > 1e-12 {
			t.Fatalf("off-topic mass %v at %d, want 0.01", w, z)
		}
	}
	var sum float64
	for _, w := range d {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum %v", sum)
	}
	if _, err := NewDist(d); err != nil {
		t.Fatalf("Concentrated is not a valid Dist: %v", err)
	}
}

func TestConcentratedK1(t *testing.T) {
	d := Concentrated(1, 0, 0.91)
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("K=1 concentrated dist = %v", d)
	}
}

func TestConcentratedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concentrated(5, 7, 0.9)
}

func TestUniform(t *testing.T) {
	d := Uniform(4)
	for _, w := range d {
		if math.Abs(w-0.25) > 1e-12 {
			t.Fatalf("uniform weight %v", w)
		}
	}
}

func TestMixEq1(t *testing.T) {
	// 2 topics, 3 edges; verify Eq. 1 by hand.
	mo := NewModel(2, 3)
	mo.Set(0, 0, 0.4)
	mo.Set(0, 1, 0.0)
	mo.Set(0, 2, 1.0)
	mo.Set(1, 0, 0.8)
	mo.Set(1, 1, 0.5)
	mo.Set(1, 2, 0.0)
	gamma := Dist{0.25, 0.75}
	got, err := mo.Mix(gamma)
	if err != nil {
		t.Fatalf("Mix: %v", err)
	}
	want := []float32{0.25*0.4 + 0.75*0.8, 0.75 * 0.5, 0.25}
	for e := range want {
		if math.Abs(float64(got[e]-want[e])) > 1e-6 {
			t.Fatalf("edge %d: got %v want %v", e, got[e], want[e])
		}
	}
}

func TestMixWrongK(t *testing.T) {
	mo := NewModel(2, 3)
	if _, err := mo.Mix(Dist{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMixSharedModel(t *testing.T) {
	probs := []float32{0.1, 0.2, 0.3}
	mo := NewSharedModel(probs)
	if mo.K() != 1 || mo.M() != 3 {
		t.Fatalf("shared model K=%d M=%d", mo.K(), mo.M())
	}
	// One topic: nothing to mix, so every ad gets the topic vector itself —
	// the identity core.Index shares samplers by.
	got, again := mo.MustMix(Dist{1}), mo.MustMix(Dist{1})
	if len(got) != len(probs) || &got[0] != &mo.Topic(0)[0] || &again[0] != &got[0] {
		t.Fatal("one-topic Mix did not return Topic(0) itself")
	}
	// More than one topic: a fresh vector per call, aliasing no topic.
	two := NewModel(2, 3)
	for e := int64(0); e < 3; e++ {
		two.Set(0, e, 0.2)
		two.Set(1, e, 0.4)
	}
	a, b := two.MustMix(Dist{1, 0}), two.MustMix(Dist{1, 0})
	if &a[0] == &b[0] || &a[0] == &two.Topic(0)[0] {
		t.Fatal("multi-topic Mix returned shared storage")
	}
	if a[0] != 0.2 || a[2] != 0.2 {
		t.Fatalf("multi-topic mix = %v, want topic 0's values", a)
	}
}

func TestMixStaysInUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.IntN(5)
		m := int64(1 + r.IntN(20))
		mo := NewModel(k, m)
		for z := 0; z < k; z++ {
			for e := int64(0); e < m; e++ {
				mo.Set(z, e, float32(r.Float64()))
			}
		}
		w := make([]float64, k)
		var sum float64
		for z := range w {
			w[z] = r.Float64() + 1e-9
			sum += w[z]
		}
		for z := range w {
			w[z] /= sum
		}
		gamma, err := NewDist(w)
		if err != nil {
			return false
		}
		mixed := mo.MustMix(gamma)
		for _, p := range mixed {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMixIsConvexCombination(t *testing.T) {
	// Mixed probability must lie between the min and max per-topic value.
	mo := NewModel(3, 4)
	vals := [][]float32{
		{0.1, 0.9, 0.5, 0.0},
		{0.2, 0.1, 0.5, 1.0},
		{0.3, 0.5, 0.5, 0.5},
	}
	for z := range vals {
		for e := range vals[z] {
			mo.Set(z, int64(e), vals[z][e])
		}
	}
	mixed := mo.MustMix(Dist{0.2, 0.3, 0.5})
	for e := 0; e < 4; e++ {
		lo, hi := float32(1), float32(0)
		for z := 0; z < 3; z++ {
			if vals[z][e] < lo {
				lo = vals[z][e]
			}
			if vals[z][e] > hi {
				hi = vals[z][e]
			}
		}
		if mixed[e] < lo-1e-6 || mixed[e] > hi+1e-6 {
			t.Fatalf("edge %d: mix %v outside [%v,%v]", e, mixed[e], lo, hi)
		}
	}
}

func TestSetPanicsOnBadProb(t *testing.T) {
	mo := NewModel(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mo.Set(0, 0, 1.5)
}

func TestConstCTP(t *testing.T) {
	c := ConstCTP{Nodes: 10, P: 0.02}
	if c.N() != 10 || c.At(3) != 0.02 {
		t.Fatal("ConstCTP accessor mismatch")
	}
}

func TestVecCTP(t *testing.T) {
	v, err := NewVecCTP([]float32{0.1, 0.2})
	if err != nil {
		t.Fatalf("NewVecCTP: %v", err)
	}
	if v.N() != 2 || math.Abs(v.At(1)-0.2) > 1e-7 {
		t.Fatal("VecCTP accessor mismatch")
	}
	if _, err := NewVecCTP([]float32{1.2}); err == nil {
		t.Fatal("expected error for CTP > 1")
	}
	if _, err := NewVecCTP([]float32{-0.1}); err == nil {
		t.Fatal("expected error for CTP < 0")
	}
}
