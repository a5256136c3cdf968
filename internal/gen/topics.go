package gen

import (
	"repro/internal/graph"
	"repro/internal/rrset"
	"repro/internal/topic"
	"repro/internal/xrand"
)

// topicChunks is how many ranges the topic-aware generators cut their
// edges into to draw them in parallel. The bounds follow the edge count
// alone, so the instance is the same at every worker count.
const topicChunks = 64

// mixBlock is how many consecutive edges a worker draws before it mixes
// them into every ad: a k×mixBlock topic-major buffer that stays in cache.
const mixBlock = 256

// adMixer writes every ad's Eq. 1 probability of a block of edges as soon
// as the block's per-topic probabilities are drawn, so the K×m topic model
// is never built. Its loop is topic.Model.Mix's restricted to the block —
// per ad, topic by topic, topics of weight 0 skipped, a float32 product
// and a float32 sum per edge, then the clamp at 1 — so every edge sees
// Mix's operations in Mix's order, and each ad's vector is bit for bit
// what Mix would return.
type adMixer struct {
	gammas []topic.Dist // per ad, its topic distribution
	probs  [][]float32  // per ad, the mixed probability of each edge
}

// newAdMixer gives h ads the concentrated topic distributions of the
// quality experiments (mass 0.91 on topic i mod k) over m edges.
func newAdMixer(h, k int, m int64) *adMixer {
	mx := &adMixer{gammas: make([]topic.Dist, h), probs: make([][]float32, h)}
	for i := range mx.gammas {
		mx.gammas[i] = topic.Concentrated(k, i%k, 0.91)
		mx.probs[i] = make([]float32, m)
	}
	return mx
}

// mix writes edges [e0, e0+n) of every ad; p[z][j] is edge e0+j's
// probability on topic z.
func (mx *adMixer) mix(e0 int64, p [][]float32, n int) {
	for i, gamma := range mx.gammas {
		out := mx.probs[i][e0 : e0+int64(n)]
		for z, gz := range gamma {
			if gz == 0 {
				continue
			}
			pz := p[z][:n]
			g := float32(gz)
			for e := range out {
				out[e] += g * pz[e]
			}
		}
		for e, v := range out {
			if v > 1 {
				out[e] = 1
			}
		}
	}
}

// topicBlock returns a k×mixBlock buffer for one worker's draws.
func topicBlock(k int) [][]float32 {
	flat := make([]float32, k*mixBlock)
	p := make([][]float32, k)
	for z := range p {
		p[z] = flat[z*mixBlock : (z+1)*mixBlock]
	}
	return p
}

// dominantTopicProbs draws the FLIXSTER topic model — each node a "home
// topic"; each edge a dominant topic, its source's home topic or, with
// probability 0.3, a uniform one; an Exp(domMean) probability on the
// dominant topic and Exp(offMean) on the others, each clamped at 1 — and
// returns h ads' mixtures of it. This reproduces the topical coherence of
// learned TIC models: influence lives in few topics per edge, so ads with
// different dominant topics compete for different influencers.
//
// The draws read r in one order: the n home topics, then per edge in
// EdgeID order the coin, the reassigned topic when the coin fires, and the
// k exponentials in topic order. The edges are cut into chunks of whole
// source rows. A skeleton (ParallelFor's item 0) walks that order with the
// k exponentials as k raw steps (each is one Float64), publishing the
// stream's state at each chunk's start as it passes it; every other item
// draws one chunk from its published state, beside the skeleton's walk of
// the chunks after it.
func dominantTopicProbs(g *graph.Graph, h, k int, domMean, offMean float64, r *xrand.Rand) [][]float32 {
	home := make([]int, g.N())
	for u := range home {
		home[u] = r.IntN(k)
	}
	m := g.M()
	var from []int32 // chunk c: the out-rows of nodes [from[c], from[c+1])
	for u := int32(0); u < int32(g.N()); u++ {
		if _, first := g.OutEdges(u); g.OutDegree(u) > 0 && first >= int64(len(from))*m/topicChunks {
			from = append(from, u)
		}
	}
	to := func(c int) int32 {
		if c+1 < len(from) {
			return from[c+1]
		}
		return int32(g.N())
	}
	at := make([]xrand.State, len(from))
	ready := make([]chan struct{}, len(from))
	for c := range ready {
		ready[c] = make(chan struct{})
	}
	mx := newAdMixer(h, k, m)
	rrset.ParallelFor(len(from)+1, 0, func(i int) {
		if i == 0 {
			for c := range from {
				at[c] = r.Capture()
				close(ready[c])
				for u := from[c]; u < to(c); u++ {
					for range g.OutDegree(u) {
						if r.Bernoulli(0.3) {
							r.IntN(k)
						}
						r.Skip(k)
					}
				}
			}
			return
		}
		c := i - 1
		<-ready[c]
		cr := xrand.New(0)
		cr.Restore(at[c])
		p := topicBlock(k)
		_, e0 := g.OutEdges(from[c])
		n := 0
		for u := from[c]; u < to(c); u++ {
			for range g.OutDegree(u) {
				dom := home[u]
				if cr.Bernoulli(0.3) {
					dom = cr.IntN(k)
				}
				for z := range p {
					mean := offMean
					if z == dom {
						mean = domMean
					}
					p[z][n] = float32(cr.ExponentialClamped(mean, 1))
				}
				if n++; n == mixBlock {
					mx.mix(e0, p, n)
					e0, n = e0+mixBlock, 0
				}
			}
		}
		mx.mix(e0, p, n)
	})
	return mx.probs
}

// exponentialTopicProbs draws the EPINIONS topic model — every edge's
// probability on each of k topics from Exp(mean) clamped at 1, topic-major:
// all m edges of topic 0, then of topic 1, … — and returns h ads' mixtures
// of it. Every draw is one Float64, so topic z's draw for edge e is the
// stream's (z·m + e)-th step. A serial skeleton steps through the stream
// and captures its state where each topic's draws of each edge chunk
// start; the chunks are then drawn in parallel, each from its k captured
// states, block by block.
func exponentialTopicProbs(g *graph.Graph, h, k int, mean float64, r *xrand.Rand) [][]float32 {
	m := g.M()
	bound := func(c int) int64 { return int64(c) * m / topicChunks }
	// at[z*topicChunks+c]: where chunk c's next draw on topic z is; only
	// chunk c's worker advances it once the skeleton is done.
	at := make([]xrand.State, k*topicChunks)
	for z := 0; z < k; z++ {
		for c := 0; c < topicChunks; c++ {
			at[z*topicChunks+c] = r.Capture()
			r.Skip(int(bound(c+1) - bound(c)))
		}
	}
	mx := newAdMixer(h, k, m)
	rrset.ParallelFor(topicChunks, 0, func(c int) {
		cr := xrand.New(0)
		p := topicBlock(k)
		for e0 := bound(c); e0 < bound(c+1); e0 += mixBlock {
			n := int(min(mixBlock, bound(c+1)-e0))
			for z, pz := range p {
				cr.Restore(at[z*topicChunks+c])
				for j := range n {
					pz[j] = float32(cr.ExponentialClamped(mean, 1))
				}
				at[z*topicChunks+c] = cr.Capture()
			}
			mx.mix(e0, p, n)
		}
	})
	return mx.probs
}
