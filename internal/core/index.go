package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// Index is a reusable per-ad RR-set sample for one problem instance. It is
// the expensive half of TIRM made into a long-lived asset: building it pays
// the reverse-BFS sampling cost once, and any number of selection runs
// (AllocateFromIndex) with different budgets, λ, κ, options, or ad subsets
// then run against the shared sample.
//
// Every set in the index is drawn from the deterministic block stream of
// rrset.SampleRangeRRInto: set i of the ad with stream id t is a pure
// function of (graph, probs, seed, t, i). The sample therefore grows on
// demand — an allocation needing a larger θ than any before it extends the
// stored prefix — yet stays byte-identical no matter which requests arrived
// in which order, and a snapshot reloaded from disk continues the very same
// stream. Safe for concurrent use by multiple allocations.
//
// Ads that draw from one probability vector share one sample (see
// newAdSample): an RR set's distribution depends only on the graph and the
// vector, since CTPs and CPEs enter at gain time, so each such ad reads its
// own prefix [0, θ_j) of one stream.
//
// The campaign set is mutable: AddAd samples a new advertiser's stream
// without touching the existing ones (or joins the sample of a peer with
// its vector, drawing nothing), and RemoveAd drops an advertiser's
// reference to its sample. Mutations swap an immutable epoch (instance +
// ad-sample list) behind an atomic pointer, so every allocation runs start
// to finish on the consistent view it captured, concurrent with any number
// of epoch swaps (see Epoch).
type Index struct {
	seed uint64
	// part is the index's slot of a placement of ad streams. The identity
	// partition (single node) owns every ad; a shard index
	// (BuildShardIndex) holds the whole sample of each ad whose stream it
	// owns and only a placeholder — position and stream id, no sets — for
	// the others. Selection over a non-identity index is meaningless on its
	// own — AllocateFromIndex refuses it; the shard coordinator
	// (internal/shard) ranks candidates across the slots instead.
	part rrset.StreamPartition
	// shard marks one slot's sample store (BuildShardIndex,
	// LoadShardIndexSnapshot), whatever the partition's size: AddAd never
	// presamples there, because the coordinator warms a new ad on its
	// owner under the options it was handed.
	shard   bool
	curr    atomic.Pointer[indexEpoch]
	mu      sync.Mutex // serializes AddAd/RemoveAd epoch swaps
	next    uint64     // next ad stream id to assign (guarded by mu)
	sampled atomic.Int64
}

// indexEpoch is one immutable version of the index's campaign set: the
// instance and the per-ad samples, positionally aligned (ads that share a
// vector hold the same *adSample). Mutations build a new epoch and swap the
// pointer; samples shared between epochs are the same *adSample (their
// internal growth is independently synchronized), so an in-flight
// allocation that captured an older epoch keeps a fully consistent ad set
// while later requests see the new one.
type indexEpoch struct {
	version uint64
	inst    *Instance
	ads     []*adSample
}

// samples returns the epoch's distinct samples in order of their first ad:
// what is presampled, counted and written once however many ads share it.
func (ep *indexEpoch) samples() []*adSample {
	out := make([]*adSample, 0, len(ep.ads))
	for _, a := range ep.ads {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// ErrStaleEpoch is returned by AllocateFromIndex when Request.Epoch names
// an epoch other than the index's current one — a campaign mutation landed
// between the caller capturing its view and the allocation starting.
var ErrStaleEpoch = errors.New("core: index epoch changed since the request was prepared")

// ErrInvalidRequest marks a request refused for its own content before any
// selection work: every Request.Resolve error wraps it, and so does the
// shard coordinator's soft-coverage refusal, so a server can answer it as
// the client's error in single-node and coordinator mode alike.
var ErrInvalidRequest = errors.New("core: invalid request")

// adSample holds the growable prefix of one RR stream — the sample of
// every ad of the epoch that draws from its probability vector — as a flat
// CSR arena (rrset.SetFamily), together with the inverted index that coverage
// collections borrow, so a warm selection run never rebuilds
// per-membership state. Over rrset.LazyMinNodes nodes or more the index is
// plain id rows, the one row form its lazy collections read; below, it is
// the cover join itself — per node, one record per containing set with the
// set's id and, when small, its members — with no id rows beside it. The
// arena makes the whole sample a handful of allocations — GC-quiet at tens
// of millions of sets — and snapshots serialize it in bulk.
type adSample struct {
	stream  uint64        // stream id: the Split index of rng under the index seed, its first ad's id
	probs   []float32     // the vector every ad of the sample draws from (the same array)
	sampled *atomic.Int64 // the owning index's lifetime counter; ensure is its only writer
	mu      sync.Mutex
	// sampler is nil for an ad whose stream another slot owns: the sample
	// is then a placeholder whose family stays empty (see owned).
	sampler *rrset.Sampler
	rng     *xrand.Rand // ad stream root; block b samples from rng.Split(b)
	fam     *rrset.SetFamily
	// widths[i] = ω(set i) for the longest pilot prefix any request
	// has asked for (KPT reads nothing else); prefix extends it on demand.
	widths []int64
	inv    *rrset.Inverted
	invLen int // sets covered by inv; may lag fam until a view needs it
	// kptCache serves KPT over this sample's pilot widths to every request
	// of every ad that shares it.
	kptCache KPTCache
}

// KPTCache memoizes KPT over one ad's immutable pilot widths, keyed by
// (pilot size, seed target): steady serving traffic revisits the same
// handful of keys on every request, and each hit saves a full O(pilot) Pow
// pass. An Index keeps one per ad sample and a shard coordinator one per
// cached pilot. The zero value is ready to use; a nil *KPTCache
// computes every value. Safe for concurrent use, and bounded: past
// kptCacheCap keys it resets wholesale (the steady-state working set
// re-fills in one request).
type KPTCache struct {
	mu    sync.Mutex
	byKey map[kptKey]float64
}

// kptKey identifies one cached KPT evaluation: the pilot-sample size the
// request's MinTheta selected and the seed target s.
type kptKey struct {
	pilot int
	s     int
}

// kptCacheCap bounds each KPTCache.
const kptCacheCap = 256

// at returns kptFromWidths(widths, s, n, m) through the cache. widths must
// be a pilot prefix of the cache's one ad stream (immutable, so the cached
// value is a pure function of the key). memo is the caller's scratch for
// misses. The value is computed outside the lock; a racing duplicate
// computation yields the identical float, so last-write is harmless.
func (c *KPTCache) at(widths []int64, s, n int, m int64, memo map[int64]float64) float64 {
	if c == nil {
		return kptFromWidths(widths, s, n, m, memo)
	}
	key := kptKey{pilot: len(widths), s: s}
	c.mu.Lock()
	v, ok := c.byKey[key]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = kptFromWidths(widths, s, n, m, memo)
	c.mu.Lock()
	if c.byKey == nil {
		c.byKey = make(map[kptKey]float64, 16)
	} else if len(c.byKey) >= kptCacheCap {
		clear(c.byKey)
	}
	c.byKey[key] = v
	c.mu.Unlock()
	return v
}

// owned reports whether this index's slot holds the ad's sample.
func (a *adSample) owned() bool { return a.sampler != nil }

// ensure extends the sample to hold the stream prefix [0, want) (growth
// rounds up to a block boundary, so fresh can exceed the shortfall).
// Neither the inverted index nor the widths are touched here: window
// consumers need neither, so growth stays O(new members); the index
// rebuild is deferred to syncInv and widths are computed by prefix for the
// pilot only. fresh is added to the index's SetsSampled here, the one
// place sets are drawn. Caller holds a.mu.
func (a *adSample) ensure(want int) (fresh int64) {
	from, to := a.fam.Len(), rrset.StreamCeil(want)
	if to <= from {
		return 0
	}
	a.sampler.SampleRangeRRInto(from, to, a.rng, a.fam)
	fresh = int64(to - from)
	a.sampled.Add(fresh)
	return fresh
}

// syncInv makes the inverted index cover at least the first want sets,
// rebuilding it over the whole arena in one counting pass when it has
// fallen behind — run only when a consumer actually needs that coverage
// (view, or BuildIndex's explicit warm-up), never on plain sample growth.
// An index that already covers want sets is served as is even if the arena
// has grown past it (collections clip rows to their view anyway), so the
// steady-state serving workload — fixed θ_init, mid-run growth through
// window() — triggers no rebuilds at all after the first build; only a
// rising θ_init pays one, and θ targets rise geometrically in practice.
// The previous index is left for concurrent views that captured it
// (immutable, swapped wholesale). Caller holds a.mu.
func (a *adSample) syncInv(want int) {
	if a.inv == nil || a.invLen < want {
		a.inv, a.invLen = rrset.BuildInverted(a.sampler.Graph().N(), a.fam.View(), 0), a.fam.Len()
	}
}

// restore installs a decoded arena and the inverted index built over it
// (nil for an empty arena) as the ad's sample — exactly the state sampling
// the same sets and a syncInv would have left. Pilot widths and openings
// are left to the first request that asks, as on a fresh build. For a
// sample no other goroutine can reach yet (the snapshot's Bind).
func (a *adSample) restore(fam *rrset.SetFamily, inv *rrset.Inverted) {
	a.fam = fam
	if inv != nil {
		a.inv, a.invLen = inv, fam.Len()
	}
}

// prefix returns the widths of the first want sets — the pilot sample KPT
// is estimated from — extending the sample, and the stored widths, if
// needed. The returned slice is a stable snapshot: later growth appends
// past its length or reallocates, never touching the returned prefix.
func (a *adSample) prefix(want int) (widths []int64, fresh int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fresh = a.ensure(want)
	g := a.sampler.Graph()
	for i := len(a.widths); i < want; i++ {
		a.widths = append(a.widths, rrset.Width(g, a.fam.Set(i)))
	}
	return a.widths[:want:want], fresh
}

// view returns the first want sets plus the shared inverted index — the
// warm-start handoff to rrset.NewCollectionFromFamily, which clips the
// index's rows to the view without copying. The returned view is a stable
// snapshot (see prefix); the index may cover more sets than the view and
// is immutable (growth swaps in a rebuilt one), so concurrent allocations
// can keep reading it.
func (a *adSample) view(want int) (v rrset.FamilyView, inv *rrset.Inverted, fresh int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fresh = a.ensure(want)
	a.syncInv(want)
	return a.fam.Prefix(want), a.inv, fresh
}

// warm grows the sample to hold the prefix [0, want) and brings the
// inverted index up to the whole arena — presampling's last step, so the
// first allocation starts warm instead of paying the counting pass on the
// request path.
func (a *adSample) warm(want int) (fresh int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fresh = a.ensure(want)
	a.syncInv(a.fam.Len())
	return fresh
}

// window returns stream sets [from, to) as a stable view, growing the
// sample if needed — the slice a selection run feeds to its coverage state
// when θ grows mid-run.
func (a *adSample) window(from, to int) (v rrset.FamilyView, fresh int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fresh = a.ensure(to)
	return a.fam.Window(from, to), fresh
}

// size returns the number of sets currently stored.
func (a *adSample) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fam.Len()
}

// memBytes returns the exact data footprint of the stored sample: member
// arena, offsets, the pilot widths computed so far, and the inverted index
// (its rows) with what has been derived from it (bitmap, openings). O(1) —
// flat arrays know their sizes.
func (a *adSample) memBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.fam.MemBytes() + 8*int64(len(a.widths))
	if a.inv != nil {
		total += a.inv.MemBytes()
	}
	return total
}

// BuildIndex creates the index for an instance and presamples every ad in
// parallel to the size TIRM's initialization would draw (the MinTheta pilot
// plus the first Eq. 5 target from the pilot's KPT estimate), so that
// subsequent allocations with compatible options rarely need to sample.
// opts only controls how much is presampled — never the content of the
// stream — so an index built with one option set serves allocations under
// any other.
func BuildIndex(inst *Instance, seed uint64, opts TIRMOptions) (*Index, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	idx := newIndexSkeleton(inst, seed, rrset.StreamPartition{})
	ep := idx.curr.Load()
	var wg sync.WaitGroup
	for _, a := range ep.samples() {
		wg.Add(1)
		go func(a *adSample) {
			defer wg.Done()
			idx.presample(a, opts)
		}(a)
	}
	wg.Wait()
	return idx, nil
}

// BuildShardIndex creates the index for one slot of a stream partition:
// the ads whose streams part owns get samples, the others placeholders. No
// presampling happens here — the shard coordinator sizes θ with the request
// options it is handed and warms each ad on its owner through EpochView. A
// sharded index refuses AllocateFromIndex; it is a sample store for
// internal/shard.
func BuildShardIndex(inst *Instance, seed uint64, part rrset.StreamPartition) (*Index, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	idx := newIndexSkeleton(inst, seed, part)
	idx.shard = true
	return idx, nil
}

// presample extends one ad's sample to the size TIRM's initialization would
// draw (pilot + first Eq. 5 target), then builds the inverted index over
// the full presample so the first allocation starts warm instead of paying
// the counting pass on the request path.
func (idx *Index) presample(a *adSample, opts TIRMOptions) {
	g := a.sampler.Graph()
	n, m := g.N(), g.M()
	widths, _ := a.prefix(opts.MinTheta)
	// Through the sample's cache, so the first request finds KPT(1) there.
	kpt := a.kptCache.at(widths, 1, n, m, nil)
	want := rrset.Theta(int64(n), 1, opts.Eps, opts.Ell, kpt, opts.MinTheta, opts.MaxTheta)
	a.warm(want)
}

// newIndexSkeleton wires samplers and per-ad streams without sampling. Ad j
// of the initial campaign set gets stream id j, which is what makes a fresh
// build followed by AddAd calls byte-identical to a cold build over the
// final ad set: stream ids always equal the positions a cold BuildIndex
// would assign, as long as no ad was removed in between. An ad that shares
// a peer's sample reports the sample's stream id, but its own id is spent
// all the same.
func newIndexSkeleton(inst *Instance, seed uint64, part rrset.StreamPartition) *Index {
	idx := &Index{seed: seed, part: part, next: uint64(len(inst.Ads))}
	ads := make([]*adSample, len(inst.Ads))
	for j, spec := range inst.Ads {
		ads[j] = idx.newAdSample(inst.G, spec.Params.Probs, uint64(j), ads[:j])
	}
	idx.curr.Store(&indexEpoch{version: 1, inst: inst, ads: ads})
	return idx
}

// newAdSample returns the sample an ad with vector probs and stream id
// stream reads. An ad whose vector is the very array a peer's sample draws
// from — a peer is an ad of the same epoch; every weighted-cascade ad (the
// generator hands them one vector) and every clone of a template ad is
// such an ad — gets that peer's sample whole: arena, inverted index,
// openings, pilot widths, KPT cache and stream id. Its own stream id is
// then unused. Otherwise it wires a fresh sampler and stream root — or,
// for a stream another slot owns, the placeholder that keeps its place.
// The peers are scanned, not mapped, so a sample is dropped with its last
// ad.
func (idx *Index) newAdSample(g *graph.Graph, probs []float32, stream uint64, peers []*adSample) *adSample {
	for _, p := range peers {
		if sameArray(p.probs, probs) {
			return p
		}
	}
	a := &adSample{stream: stream, probs: probs, sampled: &idx.sampled, fam: rrset.NewSetFamily()}
	if !idx.part.Owns(stream) {
		return a
	}
	a.sampler = rrset.NewSampler(g, probs, nil)
	a.rng = xrand.New(idx.seed).Split(stream)
	return a
}

// sameArray reports whether a and b are one non-empty vector: the same
// backing array at the same length. Identity, not content, is the sharing
// rule — cheap, and exactly what the generators and CloneAd produce.
func sameArray(a, b []float32) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// AddAd appends a new advertiser to the campaign set, sampling only the new
// ad's block stream (the existing samples are untouched, shared with every
// earlier epoch) — or nothing at all when a peer already samples its
// vector, whose sample it then joins. The new ad spends the next unused
// stream id either way, so on an index whose history contains no removals
// the resulting samples — and therefore every allocation — are
// byte-identical to a cold BuildIndex over the same final ad set and seed.
// opts controls presampling depth only, exactly as in BuildIndex; a shard index (BuildShardIndex,
// LoadShardIndexSnapshot) samples nothing here at any partition size — its
// coordinator warms the new ad on the owner. Returns the new ad's position
// in the updated instance.
func (idx *Index) AddAd(ad Ad, opts TIRMOptions) (int, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	old := idx.curr.Load()
	if err := validateAd(old.inst.G, len(old.inst.Ads), ad); err != nil {
		return 0, err
	}
	opts = opts.WithDefaults()
	a := idx.newAdSample(old.inst.G, ad.Params.Probs, idx.next, old.ads)
	idx.next++
	if !idx.shard {
		idx.presample(a, opts)
	}

	specs := make([]Ad, 0, len(old.inst.Ads)+1)
	specs = append(specs, old.inst.Ads...)
	specs = append(specs, ad)
	inst := *old.inst
	inst.Ads = specs
	ads := make([]*adSample, 0, len(old.ads)+1)
	ads = append(ads, old.ads...)
	ads = append(ads, a)
	idx.curr.Store(&indexEpoch{version: old.version + 1, inst: &inst, ads: ads})
	return len(ads) - 1, nil
}

// RemoveAd removes the advertiser at position pos from the campaign set.
// It drops the ad's reference to its sample; a sample no other ad shares
// leaves the new epoch without disturbing the other samples, and
// allocations already in flight on an older epoch keep reading it until
// they finish, after which the memory is reclaimed. No stream id is ever
// reused, so the surviving ads' samples stay exactly the streams they
// always were (removal therefore breaks positional equality with a cold
// BuildIndex over the reduced ad set — determinism is preserved, cold-build
// equality is not; see AddAd).
func (idx *Index) RemoveAd(pos int) error {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	old := idx.curr.Load()
	if pos < 0 || pos >= len(old.ads) {
		return fmt.Errorf("core: remove ad %d, index has %d", pos, len(old.ads))
	}
	if len(old.ads) == 1 {
		return fmt.Errorf("core: cannot remove the last ad")
	}
	specs := make([]Ad, 0, len(old.inst.Ads)-1)
	specs = append(specs, old.inst.Ads[:pos]...)
	specs = append(specs, old.inst.Ads[pos+1:]...)
	inst := *old.inst
	inst.Ads = specs
	ads := make([]*adSample, 0, len(old.ads)-1)
	ads = append(ads, old.ads[:pos]...)
	ads = append(ads, old.ads[pos+1:]...)
	idx.curr.Store(&indexEpoch{version: old.version + 1, inst: &inst, ads: ads})
	return nil
}

// Inst returns the instance of the index's current epoch. Mutations swap in
// a fresh instance, so the returned value is a stable snapshot — it never
// changes under the caller.
func (idx *Index) Inst() *Instance { return idx.curr.Load().inst }

// Seed returns the stream seed.
func (idx *Index) Seed() uint64 { return idx.seed }

// Epoch returns the current epoch version. It starts at 1 for a fresh
// build and increments on every AddAd/RemoveAd; pass it in Request.Epoch to
// make an allocation fail with ErrStaleEpoch instead of running against a
// campaign set other than the one the request was prepared for.
func (idx *Index) Epoch() uint64 { return idx.curr.Load().version }

// EpochInst returns the current epoch version and its instance as one
// consistent pair (two separate Epoch/Inst calls could straddle a swap).
func (idx *Index) EpochInst() (uint64, *Instance) {
	ep := idx.curr.Load()
	return ep.version, ep.inst
}

// NumAds returns the number of per-ad samples in the current epoch.
func (idx *Index) NumAds() int { return len(idx.curr.Load().ads) }

// NumSets returns the number of sets currently stored for ad j (for all
// the ads that share its sample).
func (idx *Index) NumSets(j int) int { return idx.curr.Load().ads[j].size() }

// SetsSampled returns the total number of RR-sets drawn from the graph over
// the index's lifetime (presampling plus on-demand growth, including ads
// that have since been removed).
func (idx *Index) SetsSampled() int64 { return idx.sampled.Load() }

// MemBytes reports the exact data footprint of the current epoch's stored
// samples: member arenas, offsets, pilot widths, and inverted indexes with
// their derived data. An inverted index is one row offset per node plus
// its rows: over rrset.LazyMinNodes nodes or more one 4-byte id per
// membership, below that the cover join (a 4-byte header per membership
// plus the members of each set small enough to inline) with no id rows
// beside it; the derived data are the bitmaps and the openings requests
// have left on the indexes, so the figure rises by at most 12 bytes per
// node per distinct θ served, up to rrset's cap. All of it is flat arrays,
// so the figure is byte-accurate and O(1) per sample (no slice-header
// estimates). A sample that ads share is counted once. The transient
// per-allocation coverage state is reported separately via
// TIRMResult.MemBytes.
func (idx *Index) MemBytes() int64 {
	var total int64
	for _, a := range idx.curr.Load().samples() {
		total += a.memBytes()
	}
	return total
}

// Request parameterizes one selection run against a prebuilt index. The
// zero value allocates the index's own instance under default TIRMOptions.
type Request struct {
	// Opts are the TIRM options for this run (defaults applied as in TIRM).
	Opts TIRMOptions
	// Ads optionally restricts the run to a subset of ad indices
	// (nil or empty = all ads). Unselected ads get empty seed sets.
	Ads []int
	// Budgets optionally overrides every ad's budget; when non-nil it must
	// have one entry per instance ad (original indexing).
	Budgets []float64
	// CPEs optionally overrides every ad's cost-per-engagement; same
	// shape rule as Budgets.
	CPEs []float64
	// Lambda optionally overrides the instance's seed penalty λ.
	Lambda *float64
	// Kappa optionally overrides the instance's attention bounds.
	Kappa AttentionBounds
	// SpentBudget optionally records engagement spend already accrued per
	// ad; when non-nil it must have one non-negative entry per instance ad.
	// The selection run then targets the residual budget B_i − spent_i —
	// the natural regret-minimizing replay of Eq. 3 as budgets deplete. An
	// ad whose residual is ≤ 0 is fully served and receives no seeds. An
	// all-zero vector is exactly equivalent to omitting it.
	SpentBudget []float64
	// Epoch, when non-zero, pins the run to that index epoch: if a
	// campaign mutation (AddAd/RemoveAd) swapped the epoch since the caller
	// captured it, the allocation fails with ErrStaleEpoch instead of
	// running against a different ad set than the request was shaped for
	// (positional overrides like Budgets and SpentBudget would silently
	// misalign otherwise). Zero accepts whatever epoch is current.
	Epoch uint64
	// Pool optionally names the workspace pool this run recycles its
	// transient selection state through. Hosts serving many indexes attach
	// one pool per index (internal/serve does, per cache entry) so array
	// shapes match across reuses; nil shares a process-wide default pool.
	// Pooling never changes results — allocations are byte-identical with
	// or without a warm workspace.
	Pool *WorkspacePool
	// Observer, when non-nil, receives a per-phase wall-time breakdown of
	// the run (estimation, scan, commit, grow) after the result is
	// assembled. Timing never influences the allocation, and a nil
	// observer skips every clock read — the warm path stays
	// allocation-identical with observation off.
	Observer AllocObserver
	// Explain, when set alongside an Observer implementing
	// ExplainObserver, streams one CommitEvent per selection round (the
	// chosen ad, seed node, marginal gain, and residual budget). Off by
	// default because a run can commit thousands of seeds; explain never
	// changes the allocation, only reports it.
	Explain bool
}

// Resolve validates the request against an instance and resolves its ad
// subset and effective λ/κ — the per-run request normalization the loop
// applies, exported so the shard coordinator applies the identical rules
// (including override shape checks and SpentBudget validation) before
// distributing a run. Every error it returns wraps ErrInvalidRequest.
func (req *Request) Resolve(inst *Instance) (adIDs []int, lambda float64, kappa AttentionBounds, err error) {
	h := len(inst.Ads)
	if req.Budgets != nil && len(req.Budgets) != h {
		return nil, 0, nil, fmt.Errorf("%w: request overrides %d budgets, instance has %d ads", ErrInvalidRequest, len(req.Budgets), h)
	}
	if req.CPEs != nil && len(req.CPEs) != h {
		return nil, 0, nil, fmt.Errorf("%w: request overrides %d CPEs, instance has %d ads", ErrInvalidRequest, len(req.CPEs), h)
	}
	if req.SpentBudget != nil && len(req.SpentBudget) != h {
		return nil, 0, nil, fmt.Errorf("%w: request records %d spent budgets, instance has %d ads", ErrInvalidRequest, len(req.SpentBudget), h)
	}
	for j, sp := range req.SpentBudget {
		if sp < 0 || math.IsNaN(sp) {
			return nil, 0, nil, fmt.Errorf("%w: request spent budget %v for ad %d must be ≥ 0", ErrInvalidRequest, sp, j)
		}
	}
	for j, b := range req.Budgets {
		if b <= 0 || math.IsNaN(b) {
			return nil, 0, nil, fmt.Errorf("%w: request budget %v for ad %d must be > 0", ErrInvalidRequest, b, j)
		}
	}
	for j, c := range req.CPEs {
		if c <= 0 || math.IsNaN(c) {
			return nil, 0, nil, fmt.Errorf("%w: request CPE %v for ad %d must be > 0", ErrInvalidRequest, c, j)
		}
	}
	lambda = inst.Lambda
	if req.Lambda != nil {
		lambda = *req.Lambda
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, 0, nil, fmt.Errorf("%w: request λ = %v must be ≥ 0", ErrInvalidRequest, lambda)
	}
	kappa = inst.Kappa
	if req.Kappa != nil {
		kappa = req.Kappa
	}
	if v, ok := kappa.(VecKappa); ok && len(v) != inst.G.N() {
		return nil, 0, nil, fmt.Errorf("%w: request κ vector covers %d nodes, graph has %d", ErrInvalidRequest, len(v), inst.G.N())
	}
	if len(req.Ads) == 0 {
		adIDs = make([]int, h)
		for j := range adIDs {
			adIDs[j] = j
		}
		return adIDs, lambda, kappa, nil
	}
	seen := make(map[int]bool, len(req.Ads))
	for _, j := range req.Ads {
		if j < 0 || j >= h {
			return nil, 0, nil, fmt.Errorf("%w: request selects ad %d, instance has %d", ErrInvalidRequest, j, h)
		}
		if seen[j] {
			return nil, 0, nil, fmt.Errorf("%w: request selects ad %d twice", ErrInvalidRequest, j)
		}
		seen[j] = true
	}
	return req.Ads, lambda, kappa, nil
}

// AllocateFromIndex runs the greedy regret-minimization loop of Algorithm 2
// (selection, iterative seed-set-size estimation, UpdateEstimates) against
// a prebuilt index. Sampling only happens when the run needs a larger θ
// than the index has stored — a warm run on a sufficiently grown index
// draws nothing and is dominated by coverage bookkeeping. Deterministic:
// the same index seed and request always yield the same allocation, and
// TIRM(inst, rng, opts) is exactly BuildIndex + AllocateFromIndex.
//
// Concurrent calls on one index are safe; each run keeps private coverage
// state and only shares the immutable (append-only) sample. The run
// captures the index's current epoch at entry and finishes on it even if
// AddAd/RemoveAd swap the campaign set mid-run; set Request.Epoch to refuse
// a swapped epoch outright.
func AllocateFromIndex(idx *Index, req Request) (*TIRMResult, error) {
	return AllocateFromIndexContext(context.Background(), idx, req)
}

// AllocateFromIndexContext is AllocateFromIndex under ctx: a run whose ctx
// is done stops before its next round and returns ctx's error, so a
// server whose client hung up does not pay for the rest of the run.
// Cancellation never changes a run that completes.
func AllocateFromIndexContext(ctx context.Context, idx *Index, req Request) (*TIRMResult, error) {
	return allocateEpoch(ctx, idx, idx.curr.Load(), req)
}

// allocateEpoch is AllocateFromIndexContext pinned to one epoch — the
// consistent view an allocation keeps for its whole run, no matter how many
// campaign mutations land concurrently: the one loop (loop.go) over the
// local backend (workspace.go).
func allocateEpoch(ctx context.Context, idx *Index, ep *indexEpoch, req Request) (*TIRMResult, error) {
	if !idx.part.IsIdentity() {
		return nil, fmt.Errorf("core: index holds shard %d of %d — selection over one shard's sample is meaningless; allocate through the shard coordinator",
			idx.part.Shard, idx.part.NumShards)
	}
	if req.Epoch != 0 && req.Epoch != ep.version {
		return nil, fmt.Errorf("%w: request prepared for epoch %d, index is at %d", ErrStaleEpoch, req.Epoch, ep.version)
	}
	pool := req.workspacePool()
	ws := pool.get()
	defer pool.put(ws)
	ws.local = localBackend{ep: ep, ws: ws, soft: req.Opts.SoftCoverage}
	res, err := ws.run(ctx, ep.inst, &ws.local, req)
	if err != nil {
		return nil, err
	}
	res.OpeningsBuilt = ws.local.openingsBuilt
	return res, nil
}

// --- Snapshot encoding ---------------------------------------------------

const (
	indexMagic = uint32(0x41444958) // "ADIX"
	// indexVersion 8: a CRC-guarded header — seed, instance fingerprint,
	// node count (so a snapshot is read, and its inverted indexes built,
	// before the instance exists), stream-partition manifest (shard count and shard
	// id, so a load against the wrong slot fails instead of silently serving
	// another slot's ads), the next stream id to assign, per-ad stream ids,
	// which repeat for ads that share a sample — then one flat "RRS2" family
	// section per distinct stream id, in first-appearance order, empty for a
	// stream the slot does not own. Version 7 had no next stream id: a load
	// derived it from the live ids, so an ad added after a reload could take
	// the id of one removed before the snapshot. Version 6 wrote one section
	// per ad, however many ads shared a sample; version 5 had no node count
	// and an FNV-1a fingerprint; version 4 held every ad's round-robin blocks
	// on a shard. All are refused rather than misread. Only the current
	// version is read or written: an older file is rejected and its owner
	// rebuilds (see the version policy in rrset/snapshot.go).
	indexVersion = uint32(8)
)

// fingerprintChunk is the most bytes the instance fingerprint feeds its
// CRCs at a time, so that both read a chunk while it is in cache.
const fingerprintChunk = 64 << 10

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC instructions where they exist, as it does IEEE with carry-less
// multiplication.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeLittleEndian reports whether a word in memory is already its
// little-endian encoding.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// crcPair is two CRC-32s, IEEE and Castagnoli, over one little-endian byte
// stream, fed a chunk at a time. Its sum concatenates them into 64 bits.
type crcPair struct {
	buf        []byte // encodes what is not in memory as little-endian bytes; made on first use
	n          int
	ieee, cast uint32
}

// update feeds b to both CRCs.
func (c *crcPair) update(b []byte) {
	c.ieee = crc32.Update(c.ieee, crc32.IEEETable, b)
	c.cast = crc32.Update(c.cast, castagnoli, b)
}

func (c *crcPair) flush() {
	c.update(c.buf[:c.n])
	c.n = 0
}

// room flushes unless 8 bytes fit, and returns how many 4-byte words fit.
func (c *crcPair) room() int {
	if c.buf == nil {
		c.buf = make([]byte, fingerprintChunk)
	}
	if c.n+8 > len(c.buf) {
		c.flush()
	}
	return (len(c.buf) - c.n) / 4
}

func (c *crcPair) u64(v uint64) {
	c.room()
	binary.LittleEndian.PutUint64(c.buf[c.n:], v)
	c.n += 8
}

// u32s writes k words, the i-th f(i), little-endian.
func (c *crcPair) u32s(k int, f func(i int) uint32) {
	for i := 0; i < k; {
		m := min(k-i, c.room())
		b := c.buf[c.n : c.n+4*m]
		for j := 0; j < m; j++ {
			binary.LittleEndian.PutUint32(b[4*j:], f(i+j))
		}
		c.n, i = c.n+4*m, i+m
	}
}

// words writes vs as little-endian words: straight from memory, a chunk at
// a time, on a little-endian host; through the buffer otherwise.
func words[T int32 | float32](c *crcPair, vs []T) {
	if !nativeLittleEndian {
		raw := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
		c.u32s(len(raw), func(i int) uint32 { return raw[i] })
		return
	}
	c.flush()
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
	for len(b) > 0 {
		k := min(len(b), fingerprintChunk)
		c.update(b[:k])
		b = b[k:]
	}
}

func (c *crcPair) sum() uint64 {
	c.flush()
	return uint64(c.ieee)<<32 | uint64(c.cast)
}

// indexFingerprint summarizes what the stored sample depends on — the
// graph's topology and every ad's mixed edge probabilities — so a snapshot
// is rejected when loaded against a different instance (budgets, CPEs,
// CTPs, κ, λ are selection-time inputs and deliberately excluded). Counts
// alone are not enough: two graphs with identical n, m, and probability
// values but different wiring must not share a fingerprint.
//
// The value is a crcPair over n, m and the ad count, every node's
// out-degree, every edge's target in EdgeID order, then per ad in position
// order its probability count and the crcPair digest of its probabilities.
// A probability array is hashed once however many ads sample from it
// (every weighted-cascade ad does, see newAdSample), and the value depends
// on content alone, never on which ads share an array. It is a
// deterministic function of the instance — never seeded per process —
// because shards and coordinators compare it across processes.
func indexFingerprint(inst *Instance) uint64 {
	c := &crcPair{}
	g := inst.G
	c.u64(uint64(g.N()))
	c.u64(uint64(g.M()))
	c.u64(uint64(len(inst.Ads)))
	c.u32s(g.N(), func(u int) uint32 { return uint32(g.OutDegree(int32(u))) })
	words(c, g.OutTargets())
	type digest struct {
		probs []float32
		sum   uint64
	}
	var seen []digest
	for _, ad := range inst.Ads {
		probs := ad.Params.Probs
		d := slices.IndexFunc(seen, func(s digest) bool { return sameArray(s.probs, probs) })
		if d < 0 {
			var p crcPair
			words(&p, probs)
			d, seen = len(seen), append(seen, digest{probs: probs, sum: p.sum()})
		}
		c.u64(uint64(len(probs)))
		c.u64(seen[d].sum)
	}
	return c.sum()
}

// indexHeader is the snapshot header: everything the stream
// contract depends on besides the family sections themselves — including
// the stream-partition manifest, since a shard's arenas are meaningless
// without knowing which ads' streams it holds. It serializes to a fixed
// little-endian layout whose CRC32 (IEEE) is written right after it, so a
// corrupted seed, node count, shard id, or stream id — which would silently
// diverge post-reload growth, since neither the family CRCs nor the
// instance fingerprint cover them — fails the load instead.
type indexHeader struct {
	seed        uint64
	fingerprint uint64
	nodes       uint32   // the instance's node count: every member is below it
	numShards   uint32   // partition size (1 = identity)
	shard       uint32   // this snapshot's slice
	next        uint64   // the index's next stream id: above every id it ever assigned
	streams     []uint64 // one per ad, in position order; ads sharing a sample repeat its id
}

// samples returns the header's distinct stream ids in first-appearance
// order — the order of the family sections — and per ad the position of
// its stream in that list. The ids are scanned, not mapped, as
// Index.newAdSample scans its peers.
func (h *indexHeader) samples() (streams []uint64, of []int) {
	streams, of = make([]uint64, 0, len(h.streams)), make([]int, len(h.streams))
	for j, t := range h.streams {
		k := slices.Index(streams, t)
		if k < 0 {
			k, streams = len(streams), append(streams, t)
		}
		of[j] = k
	}
	return streams, of
}

// marshal renders the header payload for writing and CRC computation:
// seed, fingerprint, node count, the partition manifest, next stream id, ad
// count, stream ids.
func (h *indexHeader) marshal() []byte {
	le := binary.LittleEndian
	out := make([]byte, 0, 8+8+4+4+4+8+4+8*len(h.streams))
	out = le.AppendUint64(out, h.seed)
	out = le.AppendUint64(out, h.fingerprint)
	out = le.AppendUint32(out, h.nodes)
	out = le.AppendUint32(out, h.numShards)
	out = le.AppendUint32(out, h.shard)
	out = le.AppendUint64(out, h.next)
	out = le.AppendUint32(out, uint32(len(h.streams)))
	for _, s := range h.streams {
		out = le.AppendUint64(out, s)
	}
	return out
}

// readIndexHeader is marshal's inverse, for a caller that expects the slice
// part: it reads the magic and version words, the payload marshal renders
// and the CRC after it. Each field is checked before anything it sizes is
// read, and the CRC last, over the re-marshalled payload — so only a header
// that round-trips is accepted. The ad count is the file's: stream ids are
// read one by one, so a corrupt count costs no more than the bytes there
// are. The next stream id must be at least the ad count (the first ads took
// ids 0 to count−1) and above every stream id, as on the index that wrote
// it.
func readIndexHeader(r io.Reader, part rrset.StreamPartition) (*indexHeader, error) {
	le := binary.LittleEndian
	var b [40]byte
	if _, err := io.ReadFull(r, b[:8]); err != nil {
		return nil, fmt.Errorf("core: index snapshot header: %w", err)
	}
	if magic := le.Uint32(b[:]); magic != indexMagic {
		return nil, fmt.Errorf("core: bad index snapshot magic %#x", magic)
	}
	if version := le.Uint32(b[4:]); version != indexVersion {
		return nil, fmt.Errorf("core: unsupported index snapshot version %d (this build reads version %d only; rebuild the index)", version, indexVersion)
	}
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, err
	}
	nodes := le.Uint32(b[16:])
	if nodes > math.MaxInt32 {
		return nil, fmt.Errorf("core: index snapshot has %d nodes, past the int32 node ids", nodes)
	}
	snapPart := rrset.StreamPartition{NumShards: int(le.Uint32(b[20:])), Shard: int(le.Uint32(b[24:]))}
	if err := snapPart.Validate(); err != nil {
		return nil, fmt.Errorf("core: index snapshot partition: %w", err)
	}
	if snapPart.NumShards == 0 {
		// WriteSnapshot writes the identity as one shard; a zero would read
		// as the identity too, and the header would not round-trip.
		return nil, errors.New("core: index snapshot partition has zero shards")
	}
	if snapPart.Size() != part.Size() || (!snapPart.IsIdentity() && snapPart.Shard != part.Shard) {
		return nil, fmt.Errorf("core: index snapshot holds stream slice %d/%d, caller expects %d/%d",
			snapPart.Shard, snapPart.Size(), part.Shard, part.Size())
	}
	numAds := int(le.Uint32(b[36:]))
	h := &indexHeader{
		seed:        le.Uint64(b[:]),
		fingerprint: le.Uint64(b[8:]),
		nodes:       nodes,
		numShards:   uint32(snapPart.Size()),
		shard:       uint32(snapPart.Shard),
		next:        le.Uint64(b[28:]),
		streams:     make([]uint64, 0, min(numAds, 1024)),
	}
	if h.next == math.MaxUint64 || h.next < uint64(numAds) {
		// The sentinel would wrap the loader's next-stream counter; an id
		// below the ad count went to one of the first ads.
		return nil, fmt.Errorf("core: index snapshot next stream id %d is invalid for %d ads", h.next, numAds)
	}
	for j := 0; j < numAds; j++ {
		if _, err := io.ReadFull(r, b[:8]); err != nil {
			return nil, fmt.Errorf("core: index snapshot ad %d stream id: %w", j, err)
		}
		stream := le.Uint64(b[:])
		if stream >= h.next {
			// A later AddAd would reuse a live stream id.
			return nil, fmt.Errorf("core: index snapshot ad %d has stream id %d, not below the next stream id %d", j, stream, h.next)
		}
		h.streams = append(h.streams, stream)
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return nil, err
	}
	if got, crc := crc32.ChecksumIEEE(h.marshal()), le.Uint32(b[:]); got != crc {
		return nil, fmt.Errorf("core: index snapshot header CRC mismatch (%#x vs %#x)", got, crc)
	}
	return h, nil
}

// WriteSnapshot persists the index's current epoch — stream seed, node
// count, the stream-partition manifest, every ad's stream id and every
// sample's stored sets — in a versioned binary format (currently version 8:
// a CRC-guarded header carrying the node count, partition, next stream id
// and stream ids, then one flat CSR section with a CRC32 footer per sample,
// shared or not, written in bulk). A process restarted with LoadIndexSnapshot (or
// LoadShardIndexSnapshot for a shard's slice) against
// the same instance resumes the identical streams: allocations after a
// reload match allocations on the original index exactly, even when the
// campaign set was mutated before the snapshot was taken.
func (idx *Index) WriteSnapshot(w io.Writer) error {
	idx.mu.Lock() // the epoch and next stream id of one mutation
	ep, next := idx.curr.Load(), idx.next
	idx.mu.Unlock()
	bw := bufio.NewWriter(w)
	var buf [8]byte
	w32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		_, err := bw.Write(buf[:4])
		return err
	}
	if err := w32(indexMagic); err != nil {
		return err
	}
	if err := w32(indexVersion); err != nil {
		return err
	}
	hdr := indexHeader{
		seed:        idx.seed,
		fingerprint: indexFingerprint(ep.inst),
		nodes:       uint32(ep.inst.G.N()),
		numShards:   uint32(idx.part.NumShards),
		shard:       uint32(idx.part.Shard),
		next:        next,
	}
	if idx.part.IsIdentity() {
		hdr.numShards, hdr.shard = 1, 0
	}
	for _, a := range ep.ads {
		hdr.streams = append(hdr.streams, a.stream)
	}
	payload := hdr.marshal()
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	if err := w32(crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	for _, a := range ep.samples() {
		a.mu.Lock()
		v := a.fam.View()
		a.mu.Unlock()
		if err := rrset.EncodeSetFamily(bw, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSnapshotFile writes the snapshot to path by temp file and rename:
// the bytes go to a temporary file in path's directory (created if
// missing), which is renamed over path only after a clean write and close,
// and a failed write leaves no temporary file behind. Nothing is synced to
// disk first, so what holds is this: a process that dies mid-write leaves
// the old file or the new one, never a mix; a power loss can leave a torn
// file under path, which the header and section CRCs then refuse, and its
// owner rebuilds (a snapshot is a cache, see rrset/snapshot.go).
func (idx *Index) WriteSnapshotFile(path string) error {
	return writeFileAtomic(path, idx.WriteSnapshot)
}

// writeFileAtomic is the temp-file-and-rename behind WriteSnapshotFile.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".adix-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) // best effort: the write's error is the one to report
	}
	return err
}

// LoadIndexSnapshot reconstructs an index for inst from a snapshot written
// by WriteSnapshot: ReadIndexSnapshot, then Bind. It fails if the snapshot
// is of any version but the current one, was taken for a different graph,
// ad set, or probability setting (node count or fingerprint mismatch),
// holds one shard's slice rather than the whole stream (use
// LoadShardIndexSnapshot), or is structurally corrupt; the inverted indexes
// are rebuilt from the decoded arenas, pilot widths and openings by the
// first request that needs them. The loaded index starts a fresh epoch
// lineage at version 1.
func LoadIndexSnapshot(inst *Instance, src io.Reader) (*Index, error) {
	return loadIndexSnapshot(inst, src, rrset.StreamPartition{})
}

// LoadShardIndexSnapshot reconstructs one shard's index from a snapshot
// written by a BuildShardIndex index. The snapshot's partition manifest
// must match part exactly — a shard must never serve another slot's ads.
func LoadShardIndexSnapshot(inst *Instance, part rrset.StreamPartition, src io.Reader) (*Index, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	idx, err := loadIndexSnapshot(inst, src, part)
	if err != nil {
		return nil, err
	}
	idx.shard = true
	return idx, nil
}

// loadIndexSnapshot is the shared loader behind LoadIndexSnapshot and
// LoadShardIndexSnapshot: an invalid instance is reported first, as before
// any byte is read, then Read's header errors, then Bind's.
func loadIndexSnapshot(inst *Instance, src io.Reader, part rrset.StreamPartition) (*Index, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	snap, err := ReadIndexSnapshot(src, part)
	if err != nil {
		return nil, err
	}
	return snap.Bind(inst)
}

// IndexSnapshot is the half of a snapshot load that needs only the file:
// the header, every sample's decoded sets and the inverted index built over
// them. ReadIndexSnapshot makes one; Bind checks it against an instance and
// turns it into an Index. The split lets a host read a snapshot while it
// generates the instance (internal/serve does).
type IndexSnapshot struct {
	hdr  *indexHeader
	part rrset.StreamPartition
	// streams and of are hdr.samples(): the distinct stream ids and each
	// ad's position among them.
	streams []uint64
	of      []int
	fams    []*rrset.SetFamily // per distinct stream, nil past a corrupt section
	invs    []*rrset.Inverted  // per distinct stream, nil for an empty sample
	err     error              // the first corrupt section, which Bind reports
	bound   bool
}

// ReadIndexSnapshot reads a snapshot written by WriteSnapshot for the slot
// part of a stream placement (the zero partition for a single node). It
// returns an error for a header that is unreadable, of another version, or
// of another slot. A corrupt section is not an error here: decoding stops
// at it and Bind reports it — after its own checks, so a snapshot of
// another instance says so even when its sections are also unreadable
// against this one.
//
// The header is read on the caller's goroutine, then the samples share
// rrset's bounded fan-out: the section decodes, which read one sequential
// stream, take turns in file order — decoded[k] closes once every section
// before k is read — and a worker that has decoded its section builds the
// sample's cover join (most of a load; the measured shares are in
// rrset/snapshot.go) while the next section decodes. One worker runs the
// samples inline in order.
func ReadIndexSnapshot(src io.Reader, part rrset.StreamPartition) (*IndexSnapshot, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(src)
	hdr, err := readIndexHeader(r, part)
	if err != nil {
		return nil, err
	}
	s := &IndexSnapshot{hdr: hdr, part: part}
	s.streams, s.of = hdr.samples()
	n := len(s.streams)
	s.fams, s.invs = make([]*rrset.SetFamily, n), make([]*rrset.Inverted, n)
	decoded := make([]chan struct{}, n+1)
	for k := range decoded {
		decoded[k] = make(chan struct{})
	}
	close(decoded[0])
	var failed atomic.Bool // set with the section error: no further section is decoded
	rrset.ParallelFor(n, 0, func(k int) {
		<-decoded[k]
		var fam *rrset.SetFamily
		if !failed.Load() {
			var err error
			if fam, err = decodeAdSection(r, int(hdr.nodes), slices.Index(s.of, k), part.Owns(s.streams[k])); err != nil {
				s.err = err // handed down the decode turns
				failed.Store(true)
			}
		}
		close(decoded[k+1])
		if fam != nil {
			s.fams[k] = fam
			if fam.Len() > 0 {
				s.invs[k] = rrset.BuildInverted(int(hdr.nodes), fam.View(), 0)
			}
		}
	})
	return s, nil
}

// Bind checks the snapshot against inst — the instance is valid, has the
// snapshot's ad and node counts and its fingerprint — then reports the
// first corrupt section, if Read met one, then any two ads that share a
// stream id but not a probability vector; these errors come in that order,
// so a snapshot of another instance says so first. On success it wires
// each sample's sampler to the instance and returns the loaded index, which
// starts a fresh epoch lineage at version 1 and owns the snapshot's
// samples: a snapshot binds at most once.
func (s *IndexSnapshot) Bind(inst *Instance) (*Index, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if s.bound {
		return nil, errors.New("core: index snapshot already bound")
	}
	hdr := s.hdr
	if len(hdr.streams) != len(inst.Ads) {
		return nil, fmt.Errorf("core: index snapshot has %d ads, instance has %d", len(hdr.streams), len(inst.Ads))
	}
	if int(hdr.nodes) != inst.G.N() {
		return nil, fmt.Errorf("core: index snapshot has %d nodes, instance has %d", hdr.nodes, inst.G.N())
	}
	if want := indexFingerprint(inst); hdr.fingerprint != want {
		return nil, fmt.Errorf("core: index snapshot fingerprint %#x does not match instance %#x", hdr.fingerprint, want)
	}
	if s.err != nil {
		return nil, s.err
	}
	// A repeated id names the sample of the stream's first ad.
	for j, k := range s.of {
		if f := slices.Index(s.of, k); f < j && !sameArray(inst.Ads[j].Params.Probs, inst.Ads[f].Params.Probs) {
			return nil, fmt.Errorf("core: index snapshot ad %d shares stream %d with ad %d, but not its probability vector", j, s.streams[k], f)
		}
	}
	idx := &Index{seed: hdr.seed, part: s.part, next: hdr.next}
	ads := make([]*adSample, len(s.of))
	for j, k := range s.of {
		if f := slices.Index(s.of, k); f < j {
			ads[j] = ads[f]
			continue
		}
		ads[j] = idx.newAdSample(inst.G, inst.Ads[j].Params.Probs, s.streams[k], nil)
		ads[j].restore(s.fams[k], s.invs[k])
	}
	s.bound, s.fams, s.invs = true, nil, nil
	idx.curr.Store(&indexEpoch{version: 1, inst: inst, ads: ads})
	return idx, nil
}

// decodeAdSection reads the family section of the sample whose first ad is
// j off the snapshot stream and checks it holds whole stream blocks, and
// none at all when the loading slot does not own the sample's stream; its
// errors name the ad.
func decodeAdSection(r io.Reader, n, j int, owned bool) (*rrset.SetFamily, error) {
	fam, err := rrset.DecodeSetFamily(r, n)
	if err != nil {
		return nil, fmt.Errorf("core: index snapshot ad %d: %w", j, err)
	}
	if fam.Len()%rrset.StreamBlockSize != 0 || !owned && fam.Len() != 0 {
		return nil, fmt.Errorf("core: index snapshot ad %d has %d sets, not whole blocks of a stream this slot owns", j, fam.Len())
	}
	return fam, nil
}
