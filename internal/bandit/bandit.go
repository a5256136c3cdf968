// Package bandit learns per-ad engagement rates online from click and
// impression feedback and turns the estimates into effective-CPE
// overrides for the allocator.
//
// The paper's TIRM formulation (and everything downstream of
// core.AllocateFromIndex) treats an ad's cost-per-engagement as a known
// constant. In production the engagement probability q_j that scales an
// advertiser's realized value is unknown and drifts, so the server must
// explore — occasionally allocating seeds to ads whose q_j is uncertain —
// while exploiting what it has learned. This package is that layer: a
// per-(ad, topic-bucket) count table behind one Estimator interface, with
// two classic index policies (UCB1 and Thompson sampling) plus a frozen
// never-update baseline used by the regret harness.
//
// Determinism is a hard requirement: every golden test in this repository
// pins exact traces, and the sharded coordinator must reproduce the
// single-node allocation bit for bit. Three design rules follow.
//
//  1. All estimator state is integers — impression and click counts, an
//     event counter, and the UCB exploration constant in 16.16 fixed
//     point. Snapshot/Restore round-trip exactly and the shard RPC
//     protocol ships the same integers, so no float crosses a boundary.
//  2. Thompson sampling draws no mutable RNG state. The posterior sample
//     for an ad is a pure function of (estimator seed, ad name hash,
//     counts): identical state always samples identically, on any
//     replica, in any order. The draw maps a derived uniform through an
//     inverse-normal approximation of the Beta posterior.
//  3. An untried ad has index 1 (optimism under uncertainty), so its
//     effective CPE equals its base CPE and a fresh estimator perturbs
//     nothing: allocations with zero feedback are byte-identical to
//     allocations with no estimator at all.
package bandit

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/xrand"
)

// Policy names accepted by New and carried in State.Policy.
const (
	// PolicyUCB is UCB1: index = mean + c·sqrt(2·ln(1+N)/n), clamped to 1.
	PolicyUCB = "ucb"
	// PolicyThompson is seeded Thompson sampling from a normal
	// approximation of the Beta posterior.
	PolicyThompson = "thompson"
	// PolicyFrozen never updates its index (always 1): the never-update
	// baseline the regret harness compares learning policies against.
	PolicyFrozen = "frozen"
)

// DefaultUCBConstant is the UCB1 exploration constant c. Engagement
// rates live in [0,1] and arrive hundreds of impressions at a time, so a
// tempered c (vs the textbook 1.0) keeps the bonus from drowning the
// mean after the first feedback batch.
const DefaultUCBConstant = 0.5

// fixedPointOne is the 16.16 fixed-point scale used for State.UCBConstFP.
const fixedPointOne = 1 << 16

// minIndex is the floor for any policy index. core.Request validation
// rejects non-positive CPE overrides, so an index may shrink to one
// fixed-point ulp but never to zero.
const minIndex = 1.0 / fixedPointOne

// Event is one batch of engagement feedback for a single ad: how many
// impressions were served (seed-set exposures evaluated) and how many
// produced a click/engagement. Bucket optionally partitions feedback by
// topic bucket; callers that do not segment pass 0.
type Event struct {
	// Ad is the campaign name the feedback belongs to. Feedback is
	// name-keyed (like the spend ledger), so it survives roster
	// reshuffles and ad churn across epochs.
	Ad string `json:"ad"`
	// Bucket is the topic bucket the impressions were served under.
	Bucket int `json:"bucket,omitempty"`
	// Impressions is the number of serves in this batch (≥ 0).
	Impressions int64 `json:"impressions"`
	// Clicks is the number of engagements observed (0 ≤ Clicks ≤ Impressions).
	Clicks int64 `json:"clicks"`
}

// Cell is one (ad, bucket) counter pair in a State snapshot.
type Cell struct {
	// Ad is the campaign name.
	Ad string `json:"ad"`
	// Bucket is the topic bucket.
	Bucket int `json:"bucket,omitempty"`
	// Impressions is the cumulative impression count for the cell.
	Impressions int64 `json:"impressions"`
	// Clicks is the cumulative click count for the cell.
	Clicks int64 `json:"clicks"`
}

// State is a complete, integer-only estimator snapshot: the payload
// Snapshot/Restore round-trip exactly. Counts and the fixed-point
// exploration constant carry no floats, so two estimators restoring the
// same State produce bit-identical indexes forever after.
type State struct {
	// Policy is the index policy ("ucb", "thompson", or "frozen").
	Policy string `json:"policy"`
	// Seed is the Thompson sampling seed (ignored by other policies).
	Seed uint64 `json:"seed"`
	// UCBConstFP is the UCB exploration constant in 16.16 fixed point.
	UCBConstFP int64 `json:"ucb_const_fp"`
	// Events is the number of feedback events observed.
	Events int64 `json:"events"`
	// Cells holds the per-(ad, bucket) counters sorted by (Ad, Bucket).
	Cells []Cell `json:"cells,omitempty"`
}

// Estimator maintains engagement-rate estimates from feedback events and
// scores ads with a policy index in (0, 1]. Implementations are safe for
// concurrent use.
type Estimator interface {
	// Policy returns the index policy name.
	Policy() string
	// Observe folds one feedback event into the counts. It returns an
	// error (and changes nothing) if the event is malformed.
	Observe(ev Event) error
	// Events returns the number of events observed (monotone).
	Events() int64
	// Impressions returns the ad's cumulative impressions over all buckets.
	Impressions(ad string) int64
	// Clicks returns the ad's cumulative clicks over all buckets.
	Clicks(ad string) int64
	// Mean returns the ad's Laplace-smoothed engagement estimate
	// (clicks+1)/(impressions+2), aggregated over buckets; always in (0, 1).
	Mean(ad string) float64
	// Estimate returns the smoothed engagement estimate for one
	// (ad, bucket) cell; always in (0, 1).
	Estimate(ad string, bucket int) float64
	// Index returns the policy score for the ad in [minIndex, 1]: the
	// optimistic (UCB) or sampled (Thompson) engagement rate, or 1 for
	// an ad with no recorded impressions.
	Index(ad string) float64
	// Exploration returns the optimism in the ad's current index:
	// max(0, Index−Mean). Near 1 means the policy is exploring the ad,
	// near 0 means it is exploiting the learned mean.
	Exploration(ad string) float64
	// EffectiveCPE scales a base CPE by the ad's index.
	EffectiveCPE(ad string, base float64) float64
	// Overrides maps base CPEs to effective CPEs position by position —
	// the slice handed to core.Request.CPEs. Ads without feedback keep
	// their base CPE unchanged.
	Overrides(names []string, base []float64) []float64
	// Snapshot returns the full integer state, cells sorted by (Ad, Bucket).
	Snapshot() State
}

// cellKey identifies one (ad, bucket) counter pair in the table.
type cellKey struct {
	ad     string
	bucket int
}

// counts is the mutable value behind one table cell.
type counts struct {
	imps, clicks int64
}

// table is the single concrete Estimator; the policy only changes how
// Index reads the counts, never how Observe writes them.
type table struct {
	policy string
	seed   uint64
	ucbCFP int64 // 16.16 fixed point
	mu     sync.Mutex
	cells  map[cellKey]*counts
	perAd  map[string]*counts // aggregate over buckets, kept in lockstep
	total  int64              // impressions across all ads (UCB's N)
	events int64
}

// New returns a fresh estimator for the given policy ("ucb", "thompson",
// or "frozen"). The seed drives Thompson sampling and is ignored by the
// other policies (but still carried in snapshots so restores are exact).
func New(policy string, seed uint64) (Estimator, error) {
	switch policy {
	case PolicyUCB, PolicyThompson, PolicyFrozen:
	default:
		return nil, fmt.Errorf("bandit: unknown policy %q", policy)
	}
	return &table{
		policy: policy,
		seed:   seed,
		ucbCFP: int64(math.Round(DefaultUCBConstant * fixedPointOne)),
		cells:  map[cellKey]*counts{},
		perAd:  map[string]*counts{},
	}, nil
}

// NewUCB returns a UCB1 estimator with the default exploration constant.
func NewUCB(seed uint64) Estimator {
	e, _ := New(PolicyUCB, seed)
	return e
}

// NewThompson returns a seeded Thompson sampling estimator.
func NewThompson(seed uint64) Estimator {
	e, _ := New(PolicyThompson, seed)
	return e
}

// NewFrozen returns the never-update baseline estimator: Observe is
// accepted but the index stays 1 for every ad.
func NewFrozen() Estimator {
	e, _ := New(PolicyFrozen, 0)
	return e
}

// Restore rebuilds an estimator from a snapshot. The result is
// indistinguishable from the estimator that produced the State: counts,
// event total, seed, and fixed-point constant all carry over exactly.
func Restore(st State) (Estimator, error) {
	e, err := New(st.Policy, st.Seed)
	if err != nil {
		return nil, err
	}
	t := e.(*table)
	if st.UCBConstFP != 0 {
		t.ucbCFP = st.UCBConstFP
	}
	if st.UCBConstFP < 0 {
		return nil, fmt.Errorf("bandit: negative UCB constant %d", st.UCBConstFP)
	}
	if st.Events < 0 {
		return nil, fmt.Errorf("bandit: negative event count %d", st.Events)
	}
	t.events = st.Events
	for _, c := range st.Cells {
		if c.Ad == "" || c.Bucket < 0 || c.Clicks < 0 || c.Impressions < 0 || c.Clicks > c.Impressions {
			return nil, fmt.Errorf("bandit: invalid snapshot cell %+v", c)
		}
		key := cellKey{ad: c.Ad, bucket: c.Bucket}
		if _, dup := t.cells[key]; dup {
			return nil, fmt.Errorf("bandit: duplicate snapshot cell %s/%d", c.Ad, c.Bucket)
		}
		t.cells[key] = &counts{imps: c.Impressions, clicks: c.Clicks}
		t.bumpAd(c.Ad, c.Impressions, c.Clicks)
	}
	return t, nil
}

// bumpAd folds a delta into the per-ad aggregate and the global total.
// Callers hold t.mu (or own t exclusively during Restore).
func (t *table) bumpAd(ad string, imps, clicks int64) {
	agg := t.perAd[ad]
	if agg == nil {
		agg = &counts{}
		t.perAd[ad] = agg
	}
	agg.imps += imps
	agg.clicks += clicks
	t.total += imps
}

// Policy returns the index policy name.
func (t *table) Policy() string { return t.policy }

// Observe folds one feedback event into the counts.
func (t *table) Observe(ev Event) error {
	if ev.Ad == "" {
		return fmt.Errorf("bandit: event without ad name")
	}
	if ev.Bucket < 0 {
		return fmt.Errorf("bandit: negative bucket %d for ad %q", ev.Bucket, ev.Ad)
	}
	if ev.Impressions < 0 || ev.Clicks < 0 {
		return fmt.Errorf("bandit: negative counts for ad %q", ev.Ad)
	}
	if ev.Clicks > ev.Impressions {
		return fmt.Errorf("bandit: ad %q has %d clicks for %d impressions", ev.Ad, ev.Clicks, ev.Impressions)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := cellKey{ad: ev.Ad, bucket: ev.Bucket}
	c := t.cells[key]
	if c == nil {
		c = &counts{}
		t.cells[key] = c
	}
	c.imps += ev.Impressions
	c.clicks += ev.Clicks
	t.bumpAd(ev.Ad, ev.Impressions, ev.Clicks)
	t.events++
	return nil
}

// Events returns the number of events observed.
func (t *table) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Impressions returns the ad's cumulative impressions over all buckets.
func (t *table) Impressions(ad string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if agg := t.perAd[ad]; agg != nil {
		return agg.imps
	}
	return 0
}

// Clicks returns the ad's cumulative clicks over all buckets.
func (t *table) Clicks(ad string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if agg := t.perAd[ad]; agg != nil {
		return agg.clicks
	}
	return 0
}

// smoothed is the Laplace-smoothed mean (clicks+1)/(imps+2): defined for
// zero counts, always strictly inside (0, 1).
func smoothed(c counts) float64 {
	return float64(c.clicks+1) / float64(c.imps+2)
}

// Mean returns the ad's smoothed engagement estimate over all buckets.
func (t *table) Mean(ad string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return smoothed(t.adCounts(ad))
}

// Estimate returns the smoothed engagement estimate for one cell.
func (t *table) Estimate(ad string, bucket int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cells[cellKey{ad: ad, bucket: bucket}]; c != nil {
		return smoothed(*c)
	}
	return smoothed(counts{})
}

// adCounts reads the per-ad aggregate under t.mu.
func (t *table) adCounts(ad string) counts {
	if agg := t.perAd[ad]; agg != nil {
		return *agg
	}
	return counts{}
}

// Index returns the policy score for the ad.
func (t *table) Index(ad string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexLocked(ad)
}

func (t *table) indexLocked(ad string) float64 {
	if t.policy == PolicyFrozen {
		return 1
	}
	agg := t.adCounts(ad)
	if agg.imps == 0 {
		// Optimism under uncertainty: an untried ad keeps its base CPE.
		return 1
	}
	switch t.policy {
	case PolicyUCB:
		mean := smoothed(agg)
		c := float64(t.ucbCFP) / fixedPointOne
		bonus := c * math.Sqrt(2*math.Log(1+float64(t.total))/float64(agg.imps))
		return clampIndex(mean + bonus)
	case PolicyThompson:
		// Normal approximation of the Beta(clicks+1, imps−clicks+1)
		// posterior, sampled through a uniform that is a pure function
		// of (seed, ad, counts) — no RNG state survives between draws,
		// so snapshots restore exactly and replicas agree.
		mu := smoothed(agg)
		sigma := math.Sqrt(mu * (1 - mu) / float64(agg.imps+3))
		u := t.posteriorUniform(ad, agg)
		return clampIndex(mu + sigma*invNormCDF(u))
	default:
		return 1
	}
}

// posteriorUniform derives the Thompson draw's uniform deterministically
// from the estimator seed, the ad name, and the current counts.
func (t *table) posteriorUniform(ad string, agg counts) float64 {
	mix := uint64(agg.imps)*0x9e3779b97f4a7c15 ^ uint64(agg.clicks)
	u := xrand.New(t.seed).Split(fnv64(ad)).Split(mix).Float64()
	// Keep the inverse CDF off its poles.
	const tiny = 1e-12
	return math.Min(math.Max(u, tiny), 1-tiny)
}

// clampIndex pins an index into [minIndex, 1].
func clampIndex(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < minIndex {
		return minIndex
	}
	return v
}

// Exploration returns max(0, Index−Mean) for the ad.
func (t *table) Exploration(ad string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.indexLocked(ad) - smoothed(t.adCounts(ad))
	if e < 0 {
		return 0
	}
	return e
}

// EffectiveCPE scales a base CPE by the ad's index.
func (t *table) EffectiveCPE(ad string, base float64) float64 {
	return base * t.Index(ad)
}

// Overrides maps base CPEs to effective CPEs position by position.
func (t *table) Overrides(names []string, base []float64) []float64 {
	if len(names) != len(base) {
		panic(fmt.Sprintf("bandit: %d names for %d base CPEs", len(names), len(base)))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(names))
	for i, name := range names {
		out[i] = base[i] * t.indexLocked(name)
	}
	return out
}

// Snapshot returns the full integer state, cells sorted by (Ad, Bucket).
func (t *table) Snapshot() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := State{
		Policy:     t.policy,
		Seed:       t.seed,
		UCBConstFP: t.ucbCFP,
		Events:     t.events,
	}
	if len(t.cells) > 0 {
		st.Cells = make([]Cell, 0, len(t.cells))
		for key, c := range t.cells {
			st.Cells = append(st.Cells, Cell{Ad: key.ad, Bucket: key.bucket, Impressions: c.imps, Clicks: c.clicks})
		}
		sort.Slice(st.Cells, func(i, j int) bool {
			if st.Cells[i].Ad != st.Cells[j].Ad {
				return st.Cells[i].Ad < st.Cells[j].Ad
			}
			return st.Cells[i].Bucket < st.Cells[j].Bucket
		})
	}
	return st
}

// fnv64 is FNV-1a over the ad name: a stable, allocation-free name hash
// for deriving per-ad random streams.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// invNormCDF is Acklam's rational approximation to the inverse standard
// normal CDF (relative error < 1.15e-9 over (0,1)) — enough accuracy for
// posterior sampling and fully portable: plain arithmetic plus
// math.Sqrt/math.Log, which Go evaluates identically on every platform.
func invNormCDF(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((cA0*q+cA1)*q+cA2)*q+cA3)*q+cA4)*q + cA5) /
			((((cB0*q+cB1)*q+cB2)*q+cB3)*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((cA0*q+cA1)*q+cA2)*q+cA3)*q+cA4)*q + cA5) /
			((((cB0*q+cB1)*q+cB2)*q+cB3)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((cC0*r+cC1)*r+cC2)*r+cC3)*r+cC4)*r + cC5) * q /
			(((((cD0*r+cD1)*r+cD2)*r+cD3)*r+cD4)*r + 1)
	}
}

// Acklam's coefficients: cC/cD drive the central region, cA/cB the tails.
const (
	cC0 = -3.969683028665376e+01
	cC1 = 2.209460984245205e+02
	cC2 = -2.759285104469687e+02
	cC3 = 1.383577518672690e+02
	cC4 = -3.066479806614716e+01
	cC5 = 2.506628277459239e+00

	cD0 = -5.447609879822406e+01
	cD1 = 1.615858368580409e+02
	cD2 = -1.556989798598866e+02
	cD3 = 6.680131188771972e+01
	cD4 = -1.328068155288572e+01

	cA0 = -7.784894002430293e-03
	cA1 = -3.223964580411365e-01
	cA2 = -2.400758277161838e+00
	cA3 = -2.549732539343734e+00
	cA4 = 4.374664141464968e+00
	cA5 = 2.938163982698783e+00

	cB0 = 7.784695709041462e-03
	cB1 = 3.224671290700398e-01
	cB2 = 2.445134137142996e+00
	cB3 = 3.754408661907416e+00
)
