package rrset

import (
	"fmt"
	"sync/atomic"

	"repro/internal/xrand"
)

// StreamBlockSize is the block granularity of the deterministic RR stream
// (see SampleRangeRRInto). Index growth always rounds up to a block
// boundary so every block is drawn in full from the start of its derived
// rng — no partially consumed streams ever need to be persisted or
// reconstructed.
const StreamBlockSize = 256

// StreamCeil rounds count up to the next StreamBlockSize multiple.
func StreamCeil(count int) int {
	if count <= 0 {
		return 0
	}
	return (count + StreamBlockSize - 1) / StreamBlockSize * StreamBlockSize
}

// SampleRangeRRInto draws sets [from, to) of the sampler's deterministic RR
// stream under rng, appending them to the fam arena. Set i belongs to block
// i/StreamBlockSize, and block b is drawn sequentially from the derived
// stream rng.Split(b), so the i-th set is a pure function of (graph, probs,
// rng seed, i) — independent of batch boundaries, growth history, and
// worker count. This is the contract that lets a long-lived RR-set index
// (core.Index) grow on demand under any interleaving of allocation
// requests, or restart from a disk snapshot, and still produce
// byte-identical samples.
//
// Blocks are sampled in parallel into per-block scratch arenas and merged
// into fam in block order, so the arena layout is as deterministic as the
// stream itself. from and to must be multiples of StreamBlockSize with
// from ≤ to; the number of appended sets is to−from.
func (s *Sampler) SampleRangeRRInto(from, to int, rng *xrand.Rand, fam *SetFamily) {
	s.sampleRange(from, to, rng, fam, false)
}

// SampleRangeRRCInto draws the blocks of SampleRangeRRInto as RRC-sets
// (§5.2, Lemma 2): a reached node's CTP coin gates its membership, not the
// walk, so a set may be empty. The sampler must have non-nil CTPs.
func (s *Sampler) SampleRangeRRCInto(from, to int, rng *xrand.Rand, fam *SetFamily) {
	if s.ctps == nil {
		panic("rrset: SampleRangeRRCInto requires CTPs")
	}
	s.sampleRange(from, to, rng, fam, true)
}

// sampleRange is the one body behind both stream forms: samplingWorkers
// workers on ParallelFor, a scratch each, blocks claimed from an atomic
// counter. Which worker draws block b never matters: its rng derives from
// b alone and it writes only blocks[b].
func (s *Sampler) sampleRange(from, to int, rng *xrand.Rand, fam *SetFamily, withCTP bool) {
	if from%StreamBlockSize != 0 || to%StreamBlockSize != 0 || from > to {
		panic(fmt.Sprintf("rrset: SampleRangeRR range [%d,%d) not block-aligned", from, to))
	}
	firstBlock := from / StreamBlockSize
	numBlocks := (to - from) / StreamBlockSize
	if numBlocks == 0 {
		return
	}
	blocks := make([]*SetFamily, numBlocks)
	var next atomic.Int64
	ParallelFor(samplingWorkers(numBlocks), 0, func(int) {
		sc := s.newScratch()
		for b := int(next.Add(1)) - 1; b < numBlocks; b = int(next.Add(1)) - 1 {
			bf := &SetFamily{
				offsets: make([]uint32, 1, StreamBlockSize+1),
				members: make([]int32, 0, 4*StreamBlockSize),
			}
			brng := rng.Split(uint64(firstBlock + b))
			for i := 0; i < StreamBlockSize; i++ {
				bf.Append(s.sampleScratch(sc, brng, withCTP))
			}
			blocks[b] = bf
		}
	})
	var total int64
	for _, bf := range blocks {
		total += bf.NumMembers()
	}
	fam.Reserve(numBlocks*StreamBlockSize, total)
	for _, bf := range blocks {
		fam.AppendFamily(bf)
	}
}
