package core

import (
	"slices"

	"repro/internal/rrset"
)

// SampleParts exposes ad j's stored sample to the external tests: its
// family, the number of sets its inverted index covers, and the pilot
// widths stored so far.
func SampleParts(idx *Index, j int) (fam *rrset.SetFamily, invLen int, widths []int64) {
	a := idx.curr.Load().ads[j]
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fam, a.invLen, a.widths
}

// OpeningTheta returns the θ at which a run under opts opens ad j's
// coverage state — Algorithm 2's θ = L(1, ε) from the ad's pilot KPT, as
// the selection loop computes it — which is the view length of the opening
// that run leaves on the ad's inverted index.
func OpeningTheta(idx *Index, j int, opts TIRMOptions) int {
	opts = opts.WithDefaults()
	ep := idx.curr.Load()
	n, m := ep.inst.G.N(), ep.inst.G.M()
	widths, _ := ep.ads[j].prefix(opts.MinTheta)
	kpt := kptFromWidths(widths, 1, n, m, nil)
	return rrset.Theta(int64(n), 1, opts.Eps, opts.Ell, kpt, opts.MinTheta, opts.MaxTheta)
}

// numSamples returns how many distinct samples the current epoch's ads
// read: one per probability vector the ads draw from.
func numSamples(idx *Index) int { return len(idx.curr.Load().samples()) }

// ownVectors returns inst with every ad drawing from its own copy of its
// probability vector: the same distributions, one sample per ad.
func ownVectors(inst *Instance) *Instance {
	out := *inst
	out.Ads = slices.Clone(inst.Ads)
	for j := range out.Ads {
		out.Ads[j].Params.Probs = slices.Clone(out.Ads[j].Params.Probs)
	}
	return &out
}
