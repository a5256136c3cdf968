// Package topic implements the paper's topic model (§3): a K-state latent
// space over which ads are described by topic distributions γ_i, edges carry
// per-topic influence probabilities p^z_{u,v}, and users carry per-ad
// click-through probabilities δ(u,i).
//
// For a fixed ad i the TIC model reduces to an independent-cascade model
// whose edge probability is the γ_i-weighted average of the per-topic edge
// probabilities (Eq. 1):
//
//	p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}
//
// Mix materializes that reduction: it produces one float32 per canonical
// EdgeID, which the diffusion and RR-set samplers consume directly.
package topic

import (
	"fmt"
	"math"
)

// Dist is a probability distribution over K topics (the paper's γ_i).
type Dist []float64

// NewDist validates and returns a topic distribution. The entries must be
// non-negative and sum to 1 within a small tolerance.
func NewDist(weights []float64) (Dist, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("topic: empty distribution")
	}
	var sum float64
	for z, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("topic: weight %d is %v", z, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("topic: weights sum to %v, want 1", sum)
	}
	d := make(Dist, len(weights))
	copy(d, weights)
	return d, nil
}

// Concentrated returns the paper's experimental ad distribution: mass `main`
// on topic z and the remaining (1-main) spread evenly over the other K-1
// topics. With K=10 and main=0.91 this reproduces "mass 0.91 in the i-th
// topic, and 0.01 in all others".
func Concentrated(k, z int, main float64) Dist {
	if k <= 0 || z < 0 || z >= k {
		panic(fmt.Sprintf("topic: Concentrated(%d,%d)", k, z))
	}
	d := make(Dist, k)
	if k == 1 {
		d[0] = 1
		return d
	}
	rest := (1 - main) / float64(k-1)
	for i := range d {
		d[i] = rest
	}
	d[z] = main
	return d
}

// Uniform returns the uniform distribution over k topics.
func Uniform(k int) Dist {
	d := make(Dist, k)
	for i := range d {
		d[i] = 1 / float64(k)
	}
	return d
}

// K returns the number of topics.
func (d Dist) K() int { return len(d) }

// Model stores the per-topic influence probabilities for every edge of a
// graph, topic-major: probs[z][e] is p^z for canonical EdgeID e.
type Model struct {
	k     int
	m     int64
	probs [][]float32
}

// NewModel creates a model for k topics over a graph with m edges. All
// probabilities start at zero.
func NewModel(k int, m int64) *Model {
	if k <= 0 {
		panic("topic: model needs k >= 1")
	}
	probs := make([][]float32, k)
	for z := range probs {
		probs[z] = make([]float32, m)
	}
	return &Model{k: k, m: m, probs: probs}
}

// NewSharedModel builds a K=1 model directly from a single probability
// vector (used for weighted-cascade scalability datasets, where every ad
// sees the same probabilities). The slice is taken over, not copied.
func NewSharedModel(probs []float32) *Model {
	return &Model{k: 1, m: int64(len(probs)), probs: [][]float32{probs}}
}

// K returns the number of topics.
func (mo *Model) K() int { return mo.k }

// M returns the number of edges the model covers.
func (mo *Model) M() int64 { return mo.m }

// Set assigns p^z_e. It panics on out-of-range topic/edge or p outside [0,1].
func (mo *Model) Set(z int, e int64, p float32) {
	if p < 0 || p > 1 || (math.IsNaN(float64(p))) {
		panic(fmt.Sprintf("topic: probability %v out of [0,1]", p))
	}
	mo.probs[z][e] = p
}

// At returns p^z_e.
func (mo *Model) At(z int, e int64) float32 { return mo.probs[z][e] }

// Topic returns the full probability vector of topic z. The returned slice
// aliases internal storage and must not be modified.
func (mo *Model) Topic(z int) []float32 { return mo.probs[z] }

// Mix materializes the ad-specific edge probabilities p^i_e = Σ_z γ^z p^z_e
// (Eq. 1). The result has one entry per canonical EdgeID and must be
// treated as read-only: with more than one topic it is a fresh vector, but
// a one-topic model has nothing to mix and returns Topic(0) itself, so
// every ad of a weighted-cascade instance shares one vector (and, through
// that identity, one sampler-side transpose in core.Index) instead of
// carrying its own copy of it.
func (mo *Model) Mix(gamma Dist) ([]float32, error) {
	if gamma.K() != mo.k {
		return nil, fmt.Errorf("topic: distribution has %d topics, model has %d", gamma.K(), mo.k)
	}
	if mo.k == 1 {
		return mo.probs[0], nil
	}
	out := make([]float32, mo.m)
	for z, gz := range gamma {
		if gz == 0 {
			continue
		}
		pz := mo.probs[z]
		g := float32(gz)
		for e := range out {
			out[e] += g * pz[e]
		}
	}
	// Guard against accumulated float error pushing past 1.
	for e, p := range out {
		if p > 1 {
			out[e] = 1
		}
	}
	return out, nil
}

// MustMix is Mix that panics on error.
func (mo *Model) MustMix(gamma Dist) []float32 {
	p, err := mo.Mix(gamma)
	if err != nil {
		panic(err)
	}
	return p
}
