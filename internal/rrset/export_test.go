package rrset

// JoinRows rewrites ix's rows in place as the cover join of the sets it
// indexes, whatever its node count: the forced cover-join index the
// external tests allocate over to compare with BuildInverted's id rows.
// For an index no collection has been opened over yet.
func JoinRows(ix *Inverted) {
	j := buildInverted(ix.NumNodes(), ix.src, ix.base, true)
	ix.off, ix.rows, ix.joined = j.off, j.rows, true
}

// Joined reports whether ix's rows are the cover join.
func Joined(ix *Inverted) bool { return ix.joined }

// ForcePerEdge lays s's probabilities out per in-edge whatever they are —
// the one layout every sampler used before per-node probabilities. For a
// sampler that has not sampled yet.
func ForcePerEdge(s *Sampler) { s.inOnce.Do(func() { s.inProbs = s.transposeProbs() }) }

// HoldsPerEdge reports whether s, once it has sampled, holds the per-edge
// probability vector.
func HoldsPerEdge(s *Sampler) bool { return s.inProbs != nil }
