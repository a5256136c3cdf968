package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
)

// scriptedBackend drives the loop without a single RR-set: every ad's
// candidates come from a fixed table, and every call is logged, so a test
// pins the loop's control flow — who is scanned, who wins, what grows, in
// which order seeds are re-credited — apart from any coverage code.
type scriptedBackend struct {
	tables map[int][]scriptedNode // per ad, in decreasing score order
	widths []int64
	failOn string // log-entry prefix at which the backend errors
	err    error
	skew   float64 // added to every Commit's claimed mass
	log    []string
}

type scriptedNode struct {
	node  int32
	score float64
}

type scriptedCov struct {
	b       *scriptedBackend
	ad      int
	table   []scriptedNode
	sets    int
	covered float64
	out     []int32
	scores  []float64
}

func (b *scriptedBackend) call(format string, args ...any) error {
	entry := fmt.Sprintf(format, args...)
	b.log = append(b.log, entry)
	if b.failOn != "" && strings.HasPrefix(entry, b.failOn) {
		return b.err
	}
	return nil
}

func (b *scriptedBackend) calls(prefix string) (n int) {
	for _, e := range b.log {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

func (b *scriptedBackend) Pilot(_ context.Context, ads []int, want int, out []Pilot) (int64, error) {
	for i := range ads {
		out[i] = Pilot{Widths: b.widths, Have: want}
	}
	return 0, b.call("pilot %v", ads)
}

func (b *scriptedBackend) Open(_ context.Context, ads, thetas []int, out []Coverage) (int64, [rrset.NumKernels]int, error) {
	for i, j := range ads {
		out[i] = &scriptedCov{b: b, ad: j, table: slices.Clone(b.tables[j]), sets: thetas[i]}
	}
	return 0, [rrset.NumKernels]int{}, b.call("open %v", ads)
}

func (c *scriptedCov) TopNodes(_ context.Context, k int, eligible func(int32) bool) ([]int32, []float64, error) {
	c.out, c.scores = c.out[:0], c.scores[:0]
	for _, e := range c.table {
		if len(c.out) < k && eligible(e.node) {
			c.out, c.scores = append(c.out, e.node), append(c.scores, e.score)
		}
	}
	return c.out, c.scores, c.b.call("top %d", c.ad)
}

func (c *scriptedCov) Commit(_ context.Context, u int32, delta float64) (float64, error) {
	i := slices.IndexFunc(c.table, func(e scriptedNode) bool { return e.node == u })
	score := c.table[i].score
	c.table = slices.Delete(c.table, i, i+1)
	c.covered += score
	return delta*score + c.b.skew, c.b.call("commit %d:%d", c.ad, u)
}

func (c *scriptedCov) Grow(_ context.Context, from, to int) (int64, error) {
	c.sets = to
	return int64(to - from), c.b.call("grow %d %d→%d", c.ad, from, to)
}

// Credit claims a fixed quarter of the seed's node id, so each seed's
// credit is recognisable in the final revenue.
func (c *scriptedCov) Credit(_ context.Context, seed int32, delta float64, boundary int) (float64, error) {
	return delta * float64(seed+1) / 4, c.b.call("credit %d:%d@%d", c.ad, seed, boundary)
}

func (c *scriptedCov) CoveredMass() float64 { return c.covered }
func (c *scriptedCov) NumSets() int         { return c.sets }
func (c *scriptedCov) MemBytes() int64      { return 1 }

// scriptedInstance is h identical ads (cpe 1, δ ≡ 1) over a 10-node path,
// so a candidate's marginal revenue is exactly 10·score/θ.
func scriptedInstance(h int, budget float64) *Instance {
	const n = 10
	b := graph.NewBuilderHint(n, n-1)
	for u := int32(0); u < n-1; u++ {
		b.AddEdge(u, u+1)
	}
	g := b.MustBuild()
	ads := make([]Ad, h)
	for i := range ads {
		ads[i] = Ad{
			Name: string(rune('a' + i)), Budget: budget, CPE: 1,
			Params: topic.ItemParams{Probs: make([]float32, g.M()), CTPs: topic.ConstCTP{Nodes: n, P: 1}},
		}
	}
	return &Instance{G: g, Ads: ads, Kappa: ConstKappa(1)}
}

// fixedTheta pins θ at 100 whatever KPT says, so mg = score/10.
var fixedTheta = TIRMOptions{Eps: 0.5, MinTheta: 100, MaxTheta: 100}

// TestLoopTieBreakRequestOrder: of equal regret drops, the loop keeps the
// first — in request order across ads, in the backend's candidate order
// within one.
func TestLoopTieBreakRequestOrder(t *testing.T) {
	inst := scriptedInstance(2, 1)
	table := []scriptedNode{{node: 4, score: 5}, {node: 7, score: 5}, {node: 2, score: 5}}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		be := &scriptedBackend{tables: map[int][]scriptedNode{0: table, 1: table}}
		opts := fixedTheta
		opts.CandidateDepth = 3
		res, err := AllocateOver(context.Background(), inst, be, Request{Opts: opts, Ads: order})
		if err != nil {
			t.Fatal(err)
		}
		// mg = 0.5 each, budget 1: the first ad in request order wins both
		// ties (nodes 4 and 7, in table order) and meets its budget; the
		// other is left node 2.
		want := [][]int32{nil, nil}
		want[order[0]], want[order[1]] = []int32{4, 7}, []int32{2}
		if !reflect.DeepEqual(res.Alloc.Seeds, want) {
			t.Fatalf("request order %v: seeds %v, want %v", order, res.Alloc.Seeds, want)
		}
	}
}

// TestLoopSaturation: an ad whose candidates all fail to reduce regret is
// never scanned again, and MaxSeedsPerAd retires an ad the same way.
func TestLoopSaturation(t *testing.T) {
	inst := scriptedInstance(2, 1)
	be := &scriptedBackend{tables: map[int][]scriptedNode{
		0: {{node: 0, score: 30}},                                          // mg 3 against budget 1: drop −1
		1: {{node: 1, score: 2}, {node: 2, score: 2}, {node: 3, score: 2}}, // mg 0.2 each
	}}
	opts := fixedTheta
	opts.MaxSeedsPerAd = 2
	res, err := AllocateOver(context.Background(), inst, be, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{nil, {1, 2}}; !reflect.DeepEqual(res.Alloc.Seeds, want) {
		t.Fatalf("seeds %v, want %v", res.Alloc.Seeds, want)
	}
	if n := be.calls("top 0"); n != 1 {
		t.Errorf("ad with no improving candidate scanned %d times, want 1", n)
	}
	if n := be.calls("top 1"); n != 2 {
		t.Errorf("ad capped at 2 seeds scanned %d times, want 2", n)
	}
}

// growthScript is one ad whose run grows θ twice: 400 → θ(3) after the
// first seed, θ(3) → θ(5) after the third.
func growthScript() (*Instance, *scriptedBackend, TIRMOptions) {
	inst := scriptedInstance(1, 9.5)
	m := inst.G.M()
	be := &scriptedBackend{
		tables: map[int][]scriptedNode{0: {{node: 0, score: 120}, {node: 1, score: 90}, {node: 2, score: 85}, {node: 3, score: 35}}},
		widths: []int64{m, m, m, m}, // KPT(s) = n/2 = 5 for every s ≤ 5
	}
	return inst, be, TIRMOptions{Eps: 0.5, MinTheta: 400, MaxTheta: 900}
}

// TestLoopGrowthAndRecredit pins Algorithm 2 lines 14–18 and Algorithm 4
// call by call: s grows by ⌊gap/mg⌋ when |S| reaches it, θ follows L(s, ε),
// every seed is re-credited in selection order at the pre-growth boundary,
// and Π is recomputed against the new θ.
func TestLoopGrowthAndRecredit(t *testing.T) {
	inst, be, opts := growthScript()
	theta := func(s int64) int { return rrset.Theta(10, s, 0.5, 1, 5, opts.MinTheta, opts.MaxTheta) }
	t1, t3, t5 := theta(1), theta(3), theta(5)
	if !(t1 == 400 && t1 < t3 && t3 < t5 && t5 < 900) {
		t.Fatalf("θ(1), θ(3), θ(5) = %d, %d, %d: the script needs two unclamped growths", t1, t3, t5)
	}

	res, err := AllocateOver(context.Background(), inst, be, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0: mg = 10·120/400 = 3, gap 6.5 → s = 1+2. Seed 2: mg = 10·85/θ₃
	// ≈ 1.52 against a gap ≈ 4.24 → s = 3+2.
	wantLog := []string{
		"pilot [0]", "open [0]",
		"top 0", "commit 0:0", fmt.Sprintf("grow 0 %d→%d", t1, t3), fmt.Sprintf("credit 0:0@%d", t1),
		"top 0", "commit 0:1",
		"top 0", "commit 0:2", fmt.Sprintf("grow 0 %d→%d", t3, t5),
		fmt.Sprintf("credit 0:0@%d", t3), fmt.Sprintf("credit 0:1@%d", t3), fmt.Sprintf("credit 0:2@%d", t3),
		"top 0", "commit 0:3",
		"top 0",
	}
	if !reflect.DeepEqual(be.log, wantLog) {
		t.Fatalf("backend calls\n got %q\nwant %q", be.log, wantLog)
	}
	if res.FinalSeedTarget[0] != 5 || res.FinalTheta[0] != t5 || res.Iterations != 4 {
		t.Fatalf("s = %d, θ = %d, %d rounds; want 5, %d, 4", res.FinalSeedTarget[0], res.FinalTheta[0], res.Iterations, t5)
	}
	if got, want := res.TotalSetsSampled, int64(t5-t1); got != want {
		t.Errorf("sets sampled %d, want the two growth windows' %d", got, want)
	}
	// Claimed masses: scores, plus (node+1)/4 per credit (seed 0 twice).
	mass := (120 + 0.25 + 0.25) + (90 + 0.5) + (85 + 0.75) + 35.0
	if want := 10 * mass / float64(t5); math.Abs(res.EstRevenue[0]-want) > 1e-9 {
		t.Errorf("revenue %v, want %v", res.EstRevenue[0], want)
	}
}

// TestLoopBackendErrors: an error from any backend call comes back from
// the loop unchanged, and the observer hears nothing of the failed run; so
// does a commit whose claimed mass disagrees with the scanned score.
func TestLoopBackendErrors(t *testing.T) {
	boom := errors.New("backend down")
	for _, failOn := range []string{"pilot", "open", "top", "commit", "grow", "credit", ""} {
		inst, be, opts := growthScript()
		be.failOn, be.err = failOn, boom
		if failOn == "" {
			be.skew = 0.5
		}
		obs := &recordingObserver{}
		res, err := AllocateOver(context.Background(), inst, be, Request{Opts: opts, Observer: obs})
		switch {
		case res != nil || err == nil:
			t.Errorf("fail on %q: got (%v, %v), want an error", failOn, res, err)
		case failOn != "" && err != boom:
			t.Errorf("fail on %q: error %v, want the backend's own", failOn, err)
		case failOn == "" && !strings.Contains(err.Error(), "out of sync"):
			t.Errorf("mass mismatch: error %v", err)
		}
		if obs.calls != 0 {
			t.Errorf("fail on %q: observer called %d times", failOn, obs.calls)
		}
	}
}

// TestLoopNoActiveAds: when every requested ad is fully spent the backend
// is never asked for anything, and the run still completes — empty seed
// sets, one ObserveAllocation.
func TestLoopNoActiveAds(t *testing.T) {
	inst := scriptedInstance(2, 3)
	be := &scriptedBackend{}
	obs := &recordingObserver{}
	res, err := AllocateOver(context.Background(), inst, be,
		Request{Opts: fixedTheta, SpentBudget: []float64{3, 4}, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(be.log) != 0 || res.Iterations != 0 || obs.calls != 1 {
		t.Fatalf("backend calls %q, %d rounds, %d observer calls; want none, 0, 1", be.log, res.Iterations, obs.calls)
	}
}

// TestRegretOver: the post-hoc regret sum honours the ad subset, budget
// overrides and spend, with the residual target clamped at 0.
func TestRegretOver(t *testing.T) {
	inst := scriptedInstance(3, 10)
	inst.Lambda = 0.5
	revenue := []float64{8, 13, 1}
	seeds := [][]int32{{1, 2}, {3}, nil}
	res := &TIRMResult{Alloc: &Allocation{Seeds: seeds}, EstRevenue: revenue}
	for _, tc := range []struct {
		ads            []int
		budgets, spent []float64
		want           float64
	}{
		{want: (2 + 1) + (3 + 0.5) + 9},
		{ads: []int{2, 0}, want: 9 + (2 + 1)},
		{budgets: []float64{8, 8, 8}, want: 1 + (5 + 0.5) + 7},
		{spent: []float64{4, 12, 0}, want: (2 + 1) + (13 + 0.5) + 9}, // ad 1 overspent: target 0
	} {
		if got := RegretOver(inst, tc.ads, tc.budgets, tc.spent, revenue, seeds); got != tc.want {
			t.Errorf("RegretOver(ads %v, budgets %v, spent %v) = %v, want %v", tc.ads, tc.budgets, tc.spent, got, tc.want)
		}
	}
	if got, want := res.EstRegret(inst), RegretOver(inst, nil, nil, nil, revenue, seeds); got != want {
		t.Errorf("EstRegret %v, want %v", got, want)
	}
}
