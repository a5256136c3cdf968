package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// fig1Instance builds the paper's Figure 1 problem: 6 nodes, 4 ads with
// CTPs .9/.8/.7/.6, budgets 4/2/2/1, CPE 1, κ_u = 1.
func fig1Instance(t testing.TB, lambda float64) *Instance {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 5)
	b.AddEdge(4, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs := []float32{0.2, 0.2, 0.5, 0.5, 0.1, 0.1}
	mk := func(name string, budget, ctp float64) Ad {
		return Ad{
			Name:   name,
			Budget: budget,
			CPE:    1,
			Params: topic.ItemParams{Probs: probs, CTPs: topic.ConstCTP{Nodes: 6, P: ctp}},
		}
	}
	return &Instance{
		G: g,
		Ads: []Ad{
			mk("a", 4, 0.9),
			mk("b", 2, 0.8),
			mk("c", 2, 0.7),
			mk("d", 1, 0.6),
		},
		Kappa:  ConstKappa(1),
		Lambda: lambda,
	}
}

// exactRevenue evaluates Π_i(S_i) by possible-world enumeration.
func exactRevenue(inst *Instance, i int, seeds []int32) float64 {
	sim := diffusion.NewSimulator(inst.G, inst.Ads[i].Params)
	return inst.Ads[i].CPE * diffusion.ExactSpread(sim, seeds)
}

// exactTotalRegret computes R(S) with exact revenues.
func exactTotalRegret(inst *Instance, alloc *Allocation) float64 {
	var total float64
	for i := range inst.Ads {
		rev := exactRevenue(inst, i, alloc.Seeds[i])
		total += RegretTerm(inst.Ads[i].Budget, rev, inst.Lambda, len(alloc.Seeds[i]))
	}
	return total
}

// allocationA assigns every user to ad a (the paper's CTP-maximizing
// allocation); allocationB is the paper's virality-aware example.
func allocationA() *Allocation {
	return &Allocation{Seeds: [][]int32{{0, 1, 2, 3, 4, 5}, nil, nil, nil}}
}

func allocationB() *Allocation {
	return &Allocation{Seeds: [][]int32{{0, 1}, {2}, {3, 4}, {5}}}
}

// TestExample1Regrets reproduces Example 1: with λ = 0 the regrets of
// allocations A and B are ≈6.6 and ≈2.7 (exact: 6.5440725 and 2.6997590).
func TestExample1Regrets(t *testing.T) {
	inst := fig1Instance(t, 0)
	ra := exactTotalRegret(inst, allocationA())
	rb := exactTotalRegret(inst, allocationB())
	if math.Abs(ra-6.5440725) > 1e-6 {
		t.Errorf("regret(A) = %.7f, want 6.5440725", ra)
	}
	if math.Abs(rb-2.6997590) > 1e-6 {
		t.Errorf("regret(B) = %.7f, want 2.6997590", rb)
	}
	// Paper's rounded numbers.
	if math.Abs(ra-6.6) > 0.1 || math.Abs(rb-2.7) > 0.05 {
		t.Errorf("regrets (%.3f, %.3f) too far from the paper's (6.6, 2.7)", ra, rb)
	}
}

// TestExample2Regrets reproduces Example 2: with λ = 0.1 the regrets grow
// by 0.1·6 seeds: ≈7.2 for A and ≈3.3 for B.
func TestExample2Regrets(t *testing.T) {
	inst := fig1Instance(t, 0.1)
	ra := exactTotalRegret(inst, allocationA())
	rb := exactTotalRegret(inst, allocationB())
	if math.Abs(ra-(6.5440725+0.6)) > 1e-6 {
		t.Errorf("regret(A, λ=0.1) = %.7f", ra)
	}
	if math.Abs(rb-(2.6997590+0.6)) > 1e-6 {
		t.Errorf("regret(B, λ=0.1) = %.7f", rb)
	}
}

func TestRegretTerm(t *testing.T) {
	if r := RegretTerm(10, 8, 0, 5); r != 2 {
		t.Errorf("undershoot regret %v", r)
	}
	if r := RegretTerm(10, 13, 0, 5); r != 3 {
		t.Errorf("overshoot regret %v", r)
	}
	if r := RegretTerm(10, 10, 0.5, 4); r != 2 {
		t.Errorf("seed-penalty regret %v", r)
	}
}

func TestRegretDrop(t *testing.T) {
	// Undershoot, no crossover: drop = mg − λ.
	if d := RegretDrop(5, 2, 0.1); math.Abs(d-1.9) > 1e-12 {
		t.Errorf("drop %v", d)
	}
	// Crossover: gap 5, mg 8 → |5|−|−3| = 2, minus λ.
	if d := RegretDrop(5, 8, 0); d != 2 {
		t.Errorf("crossover drop %v", d)
	}
	// Overshoot already: adding always hurts.
	if d := RegretDrop(-1, 2, 0); d != -2 {
		t.Errorf("overshoot drop %v", d)
	}
	// Exact budget hit.
	if d := RegretDrop(3, 3, 0); d != 3 {
		t.Errorf("exact-hit drop %v", d)
	}
}

// TestRegretDropIdentity property-checks drop = R(before) − R(after).
func TestRegretDropIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		budget := r.Uniform(1, 100)
		rev := r.Uniform(0, 150)
		mg := r.Uniform(0, 30)
		lambda := r.Uniform(0, 2)
		k := r.IntN(10)
		before := RegretTerm(budget, rev, lambda, k)
		after := RegretTerm(budget, rev+mg, lambda, k+1)
		return math.Abs(RegretDrop(budget-rev, mg, lambda)-(before-after)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceValidate(t *testing.T) {
	inst := fig1Instance(t, 0)
	if err := inst.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := *inst
	bad.Lambda = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative λ accepted")
	}
	bad = *inst
	bad.Ads = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty ads accepted")
	}
	bad = *inst
	ads := append([]Ad{}, inst.Ads...)
	ads[0].Budget = 0
	bad.Ads = ads
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = *inst
	ads = append([]Ad{}, inst.Ads...)
	ads[1].CPE = -2
	bad.Ads = ads
	if err := bad.Validate(); err == nil {
		t.Error("negative CPE accepted")
	}
	bad = *inst
	ads = append([]Ad{}, inst.Ads...)
	ads[2].Params.Probs = ads[2].Params.Probs[:3]
	bad.Ads = ads
	if err := bad.Validate(); err == nil {
		t.Error("short probability vector accepted")
	}
}

func TestTotalBudget(t *testing.T) {
	inst := fig1Instance(t, 0)
	if b := inst.TotalBudget(); b != 9 {
		t.Errorf("total budget %v, want 9", b)
	}
}

func TestAllocationValidate(t *testing.T) {
	inst := fig1Instance(t, 0)
	if err := allocationB().Validate(inst); err != nil {
		t.Errorf("allocation B rejected: %v", err)
	}
	// κ_u = 1, so the same user in two ads is invalid.
	dup := &Allocation{Seeds: [][]int32{{0}, {0}, nil, nil}}
	if err := dup.Validate(inst); err == nil {
		t.Error("attention violation accepted")
	}
	twice := &Allocation{Seeds: [][]int32{{0, 0}, nil, nil, nil}}
	if err := twice.Validate(inst); err == nil {
		t.Error("duplicate seed accepted")
	}
	oob := &Allocation{Seeds: [][]int32{{99}, nil, nil, nil}}
	if err := oob.Validate(inst); err == nil {
		t.Error("out-of-range seed accepted")
	}
	short := &Allocation{Seeds: [][]int32{nil}}
	if err := short.Validate(inst); err == nil {
		t.Error("wrong ad count accepted")
	}
}

// TestCheckAllocation runs the post-condition checker on the Figure 1 toy
// instance. The exact optimum (BruteForce) and warm TIRM runs pass it,
// under the instance's own request, under one narrowed to two ads at
// κ = 2 and under one whose recorded spend exhausts an ad's budget; each
// broken copy of a passing result fails it, as does a full result checked
// against a request whose spend leaves a seeded ad no residual budget.
func TestCheckAllocation(t *testing.T) {
	inst := fig1Instance(t, 0)
	h := len(inst.Ads)
	opt, _, err := BruteForce(inst, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact := &TIRMResult{Alloc: opt, EstRevenue: make([]float64, h), FinalTheta: make([]int, h), FinalSeedTarget: make([]int, h)}
	for i, seeds := range opt.Seeds {
		exact.EstRevenue[i] = inst.Ads[i].CPE * diffusion.ExactSpread(diffusion.NewSimulator(inst.G, inst.Ads[i].Params), seeds)
	}
	if err := CheckAllocation(inst, Request{}, exact); err != nil {
		t.Fatalf("exact optimum fails the check: %v", err)
	}

	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 20000}
	idx, err := BuildIndex(inst, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := Request{Opts: opts}
	narrow := Request{Opts: opts, Ads: []int{0, 2}, Kappa: ConstKappa(2)}
	results := map[string]*TIRMResult{}
	for name, req := range map[string]Request{"full": full, "narrow": narrow} {
		res, err := AllocateFromIndex(idx, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAllocation(inst, req, res); err != nil {
			t.Fatalf("%s TIRM result fails the check: %v", name, err)
		}
		results[name] = res
	}

	// broken returns a deep copy of a result with one change applied.
	broken := func(from *TIRMResult, change func(*TIRMResult)) *TIRMResult {
		res := *from
		res.Alloc = &Allocation{Seeds: make([][]int32, len(from.Alloc.Seeds))}
		for i, s := range from.Alloc.Seeds {
			res.Alloc.Seeds[i] = append([]int32(nil), s...)
		}
		res.EstRevenue = append([]float64(nil), from.EstRevenue...)
		change(&res)
		return &res
	}
	seeded := 0
	for seeded < h && len(results["full"].Alloc.Seeds[seeded]) == 0 {
		seeded++
	}
	if seeded == h {
		t.Fatal("TIRM seeded no ad on Figure 1")
	}
	u := results["full"].Alloc.Seeds[seeded][0]
	// The seeded ad's spend reaches its budget: a run under that request
	// leaves it unseeded, and the full result, checked against it, fails.
	spent := make([]float64, h)
	spent[seeded] = inst.Ads[seeded].Budget
	exhausted := Request{Opts: opts, SpentBudget: spent}
	res, err := AllocateFromIndex(idx, exhausted)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAllocation(inst, exhausted, res); err != nil || len(res.Alloc.Seeds[seeded]) != 0 {
		t.Fatalf("run under an exhausted budget: check %v, %d seeds on the exhausted ad", err, len(res.Alloc.Seeds[seeded]))
	}
	overridden := make([]float64, h)
	for j, ad := range inst.Ads {
		overridden[j] = ad.Budget
	}
	overridden[seeded] = 2 * spent[seeded]
	if err := CheckAllocation(inst, Request{Opts: opts, SpentBudget: spent, Budgets: overridden}, results["full"]); err != nil {
		t.Fatalf("a spend below the overridden budget fails the check: %v", err)
	}
	overridden[seeded] = spent[seeded] / 2
	cases := []struct {
		name string
		req  Request
		res  *TIRMResult
	}{
		{"seed out of range", full, broken(results["full"], func(r *TIRMResult) { r.Alloc.Seeds[seeded][0] = int32(inst.G.N()) })},
		{"negative seed", full, broken(results["full"], func(r *TIRMResult) { r.Alloc.Seeds[seeded][0] = -1 })},
		{"seed twice in one ad", full, broken(results["full"], func(r *TIRMResult) { r.Alloc.Seeds[seeded] = append(r.Alloc.Seeds[seeded], u) })},
		{"user over κ = 1", full, broken(results["full"], func(r *TIRMResult) { r.Alloc.Seeds[(seeded+1)%h] = append(r.Alloc.Seeds[(seeded+1)%h], u) })},
		{"user over the request's κ = 2", Request{Opts: opts, Kappa: ConstKappa(2)}, broken(results["full"], func(r *TIRMResult) {
			r.Alloc.Seeds[0], r.Alloc.Seeds[1], r.Alloc.Seeds[2] = []int32{5}, []int32{5}, []int32{5}
		})},
		{"seed on an ad outside the request", narrow, broken(results["narrow"], func(r *TIRMResult) { r.Alloc.Seeds[1] = []int32{4} })},
		{"NaN revenue", full, broken(results["full"], func(r *TIRMResult) { r.EstRevenue[h-1] = math.NaN() })},
		{"infinite revenue", full, broken(results["full"], func(r *TIRMResult) { r.EstRevenue[0] = math.Inf(1) })},
		{"missing θ", full, broken(results["full"], func(r *TIRMResult) { r.FinalTheta = r.FinalTheta[:h-1] })},
		{"missing seed target", full, broken(results["full"], func(r *TIRMResult) { r.FinalSeedTarget = nil })},
		{"missing ad", full, broken(results["full"], func(r *TIRMResult) { r.Alloc.Seeds = r.Alloc.Seeds[:h-1] })},
		{"seeds on an ad with no residual budget", exhausted, results["full"]},
		{"seeds on an ad spent past its overridden budget", Request{Opts: opts, SpentBudget: spent, Budgets: overridden}, results["full"]},
	}
	for _, tc := range cases {
		if err := CheckAllocation(inst, tc.req, tc.res); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Two ads on one user are within the narrowed request's κ = 2.
	ok := broken(results["narrow"], func(r *TIRMResult) { r.Alloc.Seeds[0], r.Alloc.Seeds[2] = []int32{5}, []int32{5} })
	if err := CheckAllocation(inst, narrow, ok); err != nil {
		t.Errorf("two ads on one user under κ = 2: %v", err)
	}
}

func TestAllocationStats(t *testing.T) {
	a := allocationB()
	if a.NumSeeds() != 6 {
		t.Errorf("NumSeeds %d", a.NumSeeds())
	}
	if a.DistinctTargeted() != 6 {
		t.Errorf("DistinctTargeted %d", a.DistinctTargeted())
	}
	overlap := &Allocation{Seeds: [][]int32{{0, 1}, {1, 2}}}
	if overlap.NumSeeds() != 4 || overlap.DistinctTargeted() != 3 {
		t.Errorf("overlap stats %d/%d", overlap.NumSeeds(), overlap.DistinctTargeted())
	}
}

func TestAttention(t *testing.T) {
	at := NewAttention(3, ConstKappa(2))
	if !at.CanTake(0) {
		t.Fatal("fresh node rejected")
	}
	at.Take(0)
	at.Take(0)
	if at.CanTake(0) {
		t.Fatal("bound not enforced")
	}
	if at.Count(0) != 2 || at.Count(1) != 0 {
		t.Fatal("counts wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Take past bound did not panic")
		}
	}()
	at.Take(0)
}

func TestVecKappa(t *testing.T) {
	at := NewAttention(2, VecKappa{0, 3})
	if at.CanTake(0) {
		t.Error("κ=0 node accepted")
	}
	if !at.CanTake(1) {
		t.Error("κ=3 node rejected")
	}
}
