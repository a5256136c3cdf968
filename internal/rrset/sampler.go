// Package rrset implements random reverse-reachable (RR) set sampling
// (Borgs et al. [5], Tang et al. [25]) and the paper's CTP-aware variant
// (RRC-sets, §5.2), plus the coverage index that TIM and TIRM use for
// greedy seed selection.
//
// A random RR-set is generated by removing each edge (u,v) with probability
// 1−p_{u,v} (yielding a possible world X), picking a root w uniformly at
// random, and collecting every node that reaches w in X. Operationally this
// is a reverse BFS from w that crosses each in-edge with its influence
// probability. If a node u appears in many RR-sets, it reaches many random
// targets, so it has high influence: for any seed set S,
// n·E[F_R(S)] = σ_ic(S) (Proposition 1).
//
// RRC-sets additionally flip each reached node's CTP coin to decide
// *membership* (blocked nodes keep propagating), making n·E[F_Q(S)] equal
// the IC-with-CTP spread (Lemma 2). TIRM avoids their sample-size blow-up
// by using plain RR-sets and scaling marginal coverage by δ(u) (Theorem 5);
// both modes are implemented here.
package rrset

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// maxSamplingWorkers caps the goroutines any one sampling call fans out to;
// 0 means runtime.GOMAXPROCS. Worker count never changes sample content
// (the block decomposition is deterministic), only parallelism, so
// operators can pin it (cmd flags -workers) to keep a serving process from
// saturating every core during index builds.
var maxSamplingWorkers atomic.Int32

// SetMaxWorkers caps sampling parallelism package-wide (0 or negative
// restores the GOMAXPROCS default). Safe to call concurrently.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxSamplingWorkers.Store(int32(n))
}

// MaxWorkers reports the current cap (0 = GOMAXPROCS).
func MaxWorkers() int { return int(maxSamplingWorkers.Load()) }

// samplingWorkers resolves the effective worker count for a call with
// `limit` independent work units.
func samplingWorkers(limit int) int {
	w := int(maxSamplingWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelFor calls fn(i) once for every i in [0, n) and returns when all
// calls have returned. It is the one bounded fan-out that selection shares
// (per-request set-up in core.AllocateFromIndex, the items of
// core.AllocateBatch and of serve's POST /allocate/batch): at most
// SetMaxWorkers goroutines (GOMAXPROCS by default), at most n, and — when
// limit is positive — at most limit. Indexes are claimed from an atomic
// counter, the caller's goroutine is one of the workers, and no goroutine
// outlives the call; with one worker the calls run inline in index order.
// fn must only write state owned by its index.
func ParallelFor(n, limit int, fn func(i int)) {
	workers := samplingWorkers(n)
	if limit > 0 && workers > limit {
		workers = limit
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Sampler draws random RR- or RRC-sets for one ad (a fixed mixed
// probability vector and optional CTPs) over a fixed graph. Safe for
// concurrent use; per-call scratch is handled internally.
//
// The first sample lays the probability vector out for the reverse BFS,
// once, held for the sampler's lifetime (buildInProbs): when every in-row
// carries a single probability — weighted cascade, p(u,v) = 1/indeg(v),
// every DBLP and LiveJournal ad — as one probability per node (4 B × n);
// otherwise transposed to in-CSR order (4 B × m), so that the walk reads a
// visited node's sources and their probabilities as two sequential rows at
// the same positions instead of hopping through each in-edge's EdgeID.
// Either way the walk flips the same coins in the same order. A sampler
// that never samples — one rebuilt from a snapshot and not yet grown —
// never pays for it. It is this sampler's view of probs, not sample data,
// and is counted in no MemBytes.
type Sampler struct {
	g     *graph.Graph
	probs []float32
	ctps  topic.CTP // may be nil if only RR-sets are drawn

	inOnce sync.Once
	// Exactly one of the two is set by buildInProbs.
	nodeProbs []float32 // nodeProbs[v] = the probability of every in-edge of v
	inProbs   []float32 // inProbs[k] = probs[EdgeID of the k-th in-edge], see graph.InRow
}

// NewSampler builds a sampler. probs must have one entry per edge. ctps may
// be nil when only RR-sets are drawn (SampleRangeRRInto).
func NewSampler(g *graph.Graph, probs []float32, ctps topic.CTP) *Sampler {
	if int64(len(probs)) != g.M() {
		panic("rrset: probability vector length != edge count")
	}
	if ctps != nil && ctps.N() != g.N() {
		panic("rrset: CTP length != node count")
	}
	return &Sampler{g: g, probs: probs, ctps: ctps}
}

// Probs returns the probability vector the sampler was built over (the
// caller's slice, not a copy). Read-only.
func (s *Sampler) Probs() []float32 { return s.probs }

// Graph returns the sampler's graph.
func (s *Sampler) Graph() *graph.Graph { return s.g }

// buildInProbs lays probs out for the walk, once: per node when every
// in-row carries a single probability (rowProbs), else per in-edge
// (transposeProbs). The choice follows the data alone: it is made here, at
// first sample, and never revisited.
func (s *Sampler) buildInProbs() {
	if node := s.rowProbs(); node != nil {
		s.nodeProbs = node
		return
	}
	s.inProbs = s.transposeProbs()
}

// rowProbs returns each node's in-row probability, or nil as soon as one
// in-edge's bits differ from its row's first. Walking the out-rows in
// EdgeID order meets each target's in-edges in the order graph.Builder laid
// its in-row out, so the first probability met for v is that of its first
// in-edge.
func (s *Sampler) rowProbs() []float32 {
	n := int32(s.g.N())
	node := make([]float32, n)
	seen := make([]uint64, (n+63)/64)
	for u := range n {
		targets, first := s.g.OutEdges(u)
		for i, v := range targets {
			p := s.probs[first+int64(i)]
			if word, bit := &seen[v>>6], uint64(1)<<(v&63); *word&bit == 0 {
				*word |= bit
				node[v] = p
			} else if math.Float32bits(p) != math.Float32bits(node[v]) {
				return nil
			}
		}
	}
	return node
}

// transposeProbs returns probs in in-CSR order: in the same walk, edge j's
// probability goes to its target's next in-row position.
func (s *Sampler) transposeProbs() []float32 {
	n := int32(s.g.N())
	in := make([]float32, len(s.probs))
	next := make([]int64, n)
	for v := range n {
		_, next[v] = s.g.InRow(v)
	}
	for u := range n {
		targets, first := s.g.OutEdges(u)
		for i, v := range targets {
			in[next[v]] = s.probs[first+int64(i)]
			next[v]++
		}
	}
	return in
}

// scratch is reusable per-goroutine BFS state. The visit marks are a bitset
// (n/8 bytes, so they stay in cache at sizes where a stamp per node does
// not); a sample leaves its marks set, and the next one clears them.
type scratch struct {
	mark  []uint64 // visit bitset, one bit per node; set bits ⊆ queue
	queue []int32  // the nodes reached by the last sample, in BFS order
	out   []int32  // last sampled set (valid until the next sample)
}

func (s *Sampler) newScratch() *scratch {
	return &scratch{mark: make([]uint64, (s.g.N()+63)/64), queue: make([]int32, 0, 64)}
}

// reset clears the previous sample's marks by walking its queue, which
// holds exactly the marked nodes (zeroing a whole word drops only bits of
// other queue members).
func (sc *scratch) reset() {
	for _, v := range sc.queue {
		sc.mark[v>>6] = 0
	}
	sc.queue = sc.queue[:0]
	sc.out = sc.out[:0]
}

// sampleScratch runs one reverse BFS from a uniformly random root and
// returns the resulting set in sc's reusable buffer — valid only until the
// next sample from the same scratch. withCTP selects RRC semantics (node
// coins gate membership but not propagation). RNG consumption depends only
// on the graph walk, never on where the output lands: the stream copies
// each set into its block's slot before the next sample reuses the buffer.
// An in-edge whose source is already marked is skipped before its coin is
// flipped: which draws a sample takes is part of the stream's definition
// (referenceSample in the tests is the loop this one must match draw for
// draw), so the mark test and the coin must not trade places.
func (s *Sampler) sampleScratch(sc *scratch, rng *xrand.Rand, withCTP bool) []int32 {
	s.inOnce.Do(s.buildInProbs)
	sc.reset()
	root := int32(rng.IntN(s.g.N()))
	sc.mark[root>>6] |= 1 << (root & 63)
	sc.queue = append(sc.queue, root)
	if !withCTP || rng.Bernoulli(s.ctps.At(root)) {
		sc.out = append(sc.out, root)
	}
	perEdge := s.inProbs != nil
	for qi := 0; qi < len(sc.queue); qi++ {
		u := sc.queue[qi]
		sources, first := s.g.InRow(u)
		var ps []float32
		var p float32
		if perEdge {
			ps = s.inProbs[first:]
		} else {
			p = s.nodeProbs[u]
		}
		for i, v := range sources {
			word, bit := &sc.mark[v>>6], uint64(1)<<(v&63)
			if *word&bit != 0 {
				continue
			}
			if perEdge {
				p = ps[i]
			}
			if !rng.Bernoulli32(p) {
				continue
			}
			*word |= bit
			sc.queue = append(sc.queue, v)
			if !withCTP || rng.Bernoulli(s.ctps.At(v)) {
				sc.out = append(sc.out, v)
			}
		}
	}
	return sc.out
}

// FracCovered returns the fraction of the view's sets that intersect S
// (the F_R(S) of Proposition 1 / F_Q(S) of Lemma 2).
func FracCovered(v FamilyView, seeds []int32, n int) float64 {
	if v.Len() == 0 {
		return 0
	}
	inS := make([]bool, n)
	for _, u := range seeds {
		inS[u] = true
	}
	covered := 0
	for i := 0; i < v.Len(); i++ {
		for _, u := range v.Set(i) {
			if inS[u] {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(v.Len())
}

// Width returns Σ_{v∈set} indeg(v), the ω(R) statistic used by TIM's KPT
// estimation (the expected cost of generating the set).
func Width(g *graph.Graph, set []int32) int64 {
	var w int64
	for _, v := range set {
		w += int64(g.InDegree(v))
	}
	return w
}
