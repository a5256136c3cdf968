// Coverage kernels: the two implementations of the cover sweep at the
// heart of the greedy allocation loop. Every committed seed must discover
// the not-yet-covered sets containing it and decrement the residual
// coverage of their members; that inner loop dominates a warm allocation's
// profile. Both kernels serve the hard Collection only; the soft
// WeightedCollection's commit always takes the sparse walk
// (sparseCommitSegs).
//
//   - sparse: the inverted-row scan — one cover-join record stream (or id
//     row + arena hop, the form of every index over LazyMinNodes nodes or
//     more) per node, cost proportional to the node's membership count. It
//     is the eager walk every operation has: cover, delta capture and
//     credit, over any segment.
//   - bitset: per-node RR-set membership packed as uint64 words (see
//     coverBits), so discovering newly covered sets is a word-wise
//     AND-NOT + popcount sweep with an unrolled 4-words-per-iteration
//     inner loop and no data-dependent branches until a word actually
//     holds new sets. Right for dense instances where inverted rows
//     approach the set count. It serves CoverNode only.
//
// Which one a Collection runs is decided by the data, in one place:
// Inverted.PrepareCover builds the membership bitmap exactly when the
// sample is dense enough, and a Collection Reset over an index that has a
// bitmap sweeps it in CoverNode. Anything else — growth, credit, a delta
// capture — first turns the collection to the sparse walk for the rest of
// its run (Collection.materialize), as it turns a lazy one eager (lazy.go).
// Nothing above this package names a kernel except to count Kernel().
//
// Kernels differ only in how covered sets are *discovered*; sets are then
// retired in ascending id order with identical per-member updates either
// way, so heap evolution, tie-breaking — and therefore the final
// allocation — are byte-identical across kernels (pinned by
// FuzzKernelEquivalence and the golden tests).

package rrset

import mbits "math/bits"

// KernelID identifies a coverage-kernel implementation; the zero value is
// the sparse kernel.
type KernelID uint8

const (
	// KernelSparse is the cover-join / inverted-row scan — the default,
	// and the only kernel usable on growth segments and counter
	// collections.
	KernelSparse KernelID = iota
	// KernelBitset is the dense branch-free kernel over packed per-node
	// membership words (requires the inverted index's membership bitmap).
	KernelBitset
	// NumKernels counts the kernel implementations (array-sizing aid for
	// per-kernel tallies).
	NumKernels int = iota
)

// kernelNames maps KernelID to the name String reports.
var kernelNames = [NumKernels]string{"sparse", "bitset"}

// String returns the kernel's name ("sparse", "bitset").
func (k KernelID) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "unknown"
}

// sparseCoverSegs is the sparse CoverNode walk over the given segments: a
// joined index's sequential record stream, or an id row + arena hop. Record
// order equals id order, so the covering sequence is the historical one. An
// inline record leaves u out (see the cover join), so the walk counts the
// inline sets it covers and takes u's own decrement for all of them once,
// after the walk: nothing in the walk reads u's coverage.
func sparseCoverSegs(c *Collection, u int32, segs []covSegment) int {
	covered, own := 0, int32(0)
	cov, cvd := c.cov, c.covered
	for si := range segs {
		seg := &segs[si]
		base := seg.base
		offs, mem := seg.view.offsets, seg.view.members
		if seg.inv.joined {
			limit := int32(seg.end())
			row := seg.inv.row(u)
			for p := 0; p < len(row); {
				id, sz := row[p]>>joinSizeBits, int(row[p]&joinSizeMask)
				if id >= limit {
					break
				}
				bit := uint64(1) << (uint(id) & 63)
				var members []int32
				if sz == joinSpill {
					p++
					if cvd[id>>6]&bit != 0 {
						continue
					}
					i := int(id - base)
					members = mem[offs[i]:offs[i+1]]
				} else {
					members = row[p+1 : p+1+sz]
					p += 1 + sz
					if cvd[id>>6]&bit != 0 {
						continue
					}
					own++
				}
				cvd[id>>6] |= bit
				covered++
				for _, w := range members {
					cov[w]--
				}
			}
			continue
		}
		for _, id := range seg.idsOf(u) {
			bit := uint64(1) << (uint(id) & 63)
			if cvd[id>>6]&bit != 0 {
				continue
			}
			cvd[id>>6] |= bit
			covered++
			i := int(id - base)
			for _, w := range mem[offs[i]:offs[i+1]] {
				cov[w]--
			}
		}
	}
	cov[u] -= own
	return covered
}

// sparseDeltaSegs is the sparse CountAndCoverFrom walk over the given
// segments — the same record stream (or id row + arena hop) as
// sparseCoverSegs, skipping ids below firstID, with u's own inline
// decrements likewise taken once after the walk — stamping every node it
// decrements into the sink when there is one, u at an inline record ahead
// of the record's other members. It runs on every sharded commit and credit
// (the delta-capture path), so a joined index walks its records here too.
func sparseDeltaSegs(c *Collection, u int32, firstID int, segs []covSegment, s *deltaSink) int {
	covered, own := 0, int32(0)
	cov, cvd := c.cov, c.covered
	first := int32(firstID)
	for si := range segs {
		seg := &segs[si]
		if seg.end() <= firstID {
			continue
		}
		base := seg.base
		offs, mem := seg.view.offsets, seg.view.members
		if seg.inv.joined {
			limit := int32(seg.end())
			row := seg.inv.row(u)
			for p := 0; p < len(row); {
				id, sz := row[p]>>joinSizeBits, int(row[p]&joinSizeMask)
				if id >= limit {
					break
				}
				bit := uint64(1) << (uint(id) & 63)
				var members []int32
				if sz == joinSpill {
					p++
					if id < first || cvd[id>>6]&bit != 0 {
						continue
					}
					i := int(id - base)
					members = mem[offs[i]:offs[i+1]]
				} else {
					members = row[p+1 : p+1+sz]
					p += 1 + sz
					if id < first || cvd[id>>6]&bit != 0 {
						continue
					}
					own++
					if s != nil {
						s.record(u)
					}
				}
				cvd[id>>6] |= bit
				covered++
				for _, w := range members {
					if s != nil {
						s.record(w)
					}
					cov[w]--
				}
			}
			continue
		}
		for _, id := range seg.idsOf(u) {
			bit := uint64(1) << (uint(id) & 63)
			if id < first || cvd[id>>6]&bit != 0 {
				continue
			}
			cvd[id>>6] |= bit
			covered++
			i := int(id - base)
			for _, w := range mem[offs[i]:offs[i+1]] {
				if s != nil {
					s.record(w)
				}
				cov[w]--
			}
		}
	}
	cov[u] -= own
	return covered
}

// sparseCommitSegs is the weighted commit walk over the given segments,
// WeightedCollection's one kernel. An inline record leaves u out, so the
// walk applies u's own decrement and clamp for each live inline set, at
// that set's place in id order: every node's weighted coverage sees the
// same float operations in the same order as when each record held its
// whole set.
func sparseCommitSegs(c *WeightedCollection, u int32, delta float64, firstID int, segs []covSegment) float64 {
	var total float64
	wcov, weight := c.wcov, c.weight
	for si := range segs {
		seg := &segs[si]
		if seg.end() <= firstID {
			continue
		}
		base := seg.base
		offs, mem := seg.view.offsets, seg.view.members
		if seg.inv.joined {
			// Sequential record-stream walk — see Collection.CoverNode for
			// why this beats the per-set arena hop on the commit path.
			limit := int32(seg.end())
			first := int32(firstID)
			row := seg.inv.row(u)
			for p := 0; p < len(row); {
				id, sz := row[p]>>joinSizeBits, int(row[p]&joinSizeMask)
				if id >= limit {
					break
				}
				var members []int32
				inline := sz != joinSpill
				if inline {
					members = row[p+1 : p+1+sz]
					p += 1 + sz
				} else {
					p++
					i := int(id - base)
					members = mem[offs[i]:offs[i+1]]
				}
				if id < first {
					continue
				}
				w := weight[id]
				if w == 0 {
					continue
				}
				dec := w * delta
				weight[id] = w - dec
				c.claimed += dec
				total += dec
				if inline {
					wcov[u] -= dec
					if wcov[u] < 0 {
						wcov[u] = 0 // clamp float drift
					}
				}
				for _, x := range members {
					wcov[x] -= dec
					if wcov[x] < 0 {
						wcov[x] = 0 // clamp float drift
					}
				}
			}
			continue
		}
		for _, id := range seg.idsOf(u) {
			if int(id) < firstID {
				continue
			}
			w := weight[id]
			if w == 0 {
				continue
			}
			dec := w * delta
			weight[id] = w - dec
			c.claimed += dec
			total += dec
			i := int(id - base)
			for _, x := range mem[offs[i]:offs[i+1]] {
				wcov[x] -= dec
				if wcov[x] < 0 {
					wcov[x] = 0 // clamp float drift
				}
			}
		}
	}
	return total
}

// bitsetCover is the dense CoverNode sweep over the one segment: new sets
// are row AND-NOT covered-words, four words per iteration; only a word
// actually holding new sets takes the extraction branch. covered's bits past
// the view's set count are pre-set while the sweep is active (UseKernel),
// so no per-word masking is needed.
func (c *Collection) bitsetCover(u int32) int {
	row := c.bits.row(u)
	cvd := c.covered
	seg := &c.segs[0]
	offs, mem := seg.view.offsets, seg.view.members
	covered := 0
	kw := len(cvd)
	w := 0
	for ; w+4 <= kw; w += 4 {
		n0 := row[w] &^ cvd[w]
		n1 := row[w+1] &^ cvd[w+1]
		n2 := row[w+2] &^ cvd[w+2]
		n3 := row[w+3] &^ cvd[w+3]
		if n0|n1|n2|n3 == 0 {
			continue
		}
		if n0 != 0 {
			covered += c.coverWord(w, n0, offs, mem)
		}
		if n1 != 0 {
			covered += c.coverWord(w+1, n1, offs, mem)
		}
		if n2 != 0 {
			covered += c.coverWord(w+2, n2, offs, mem)
		}
		if n3 != 0 {
			covered += c.coverWord(w+3, n3, offs, mem)
		}
	}
	for ; w < kw; w++ {
		if nw := row[w] &^ cvd[w]; nw != 0 {
			covered += c.coverWord(w, nw, offs, mem)
		}
	}
	return covered
}

// coverWord retires the sets in one word of new coverage: mark them covered
// with one OR into the covered bitmap and decrement their members' residual
// coverage. Bits extract in ascending order, so sets retire ascending by id
// exactly as the sparse walk would.
func (c *Collection) coverWord(w int, nw uint64, offs []uint32, mem []int32) int {
	c.covered[w] |= nw
	cov := c.cov
	base := int32(w << 6)
	covered := mbits.OnesCount64(nw)
	for nw != 0 {
		id := base + int32(mbits.TrailingZeros64(nw))
		nw &= nw - 1
		for _, x := range mem[offs[id]:offs[id+1]] {
			cov[x]--
		}
	}
	return covered
}

// deltaSink captures one cover's sparse per-node decrement vector (see
// CoverNodeDelta) with one stamp per node: a node's first touch appends it
// with its residual coverage before the touch, later touches find the stamp
// and do nothing, and finish turns each captured count into the node's
// total decrement. The walk calls record before every decrement. A struct,
// not a closure pair, so the capture allocates nothing on the shard commit
// path.
type deltaSink struct {
	seen  []uint64
	gen   uint64
	cov   []int32
	nodes []int32
	decs  []int32
}

// newDeltaSink starts a fresh generation of the collection's dedup stamps
// and wraps the (re-sliced) output buffers in a sink. The sink never
// escapes the cover call, so it lives on the caller's stack.
func (c *Collection) newDeltaSink(nodes, decs []int32) deltaSink {
	gen := c.stamps(c.n)
	return deltaSink{seen: c.seen, gen: gen, cov: c.cov, nodes: nodes[:0], decs: decs[:0]}
}

// record notes that node w is about to lose residual coverage.
func (s *deltaSink) record(w int32) {
	if s.seen[w] != s.gen {
		s.seen[w] = s.gen
		s.nodes = append(s.nodes, w)
		s.decs = append(s.decs, s.cov[w])
	}
}

// finish turns each captured count into the node's decrement over the
// walk: its coverage before the first touch minus its coverage now.
func (s *deltaSink) finish() {
	for i, w := range s.nodes {
		s.decs[i] -= s.cov[w]
	}
}
