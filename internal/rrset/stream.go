package rrset

import (
	"fmt"
	"math"
	"sync"
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
// Blocks are sampled in parallel and appended to fam in block order as
// soon as every earlier block is in, so the arena layout is as
// deterministic as the stream itself. from and to must be multiples of
// StreamBlockSize with from ≤ to; the number of appended sets is to−from.
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

// ringSpanPerWorker is how far, in blocks per worker, a worker may draw
// ahead of the oldest block not yet appended. The ring imposes no barrier:
// a worker waits only past the span, so a block whose worker is held up —
// a heavy-tailed set, a thread the OS or the garbage collector takes away
// for a millisecond or two — stalls nobody until the others have drawn
// that far past it. The span bounds the buffers a call may hold, not the
// ones it does: a buffer is taken at claim and handed back at its append,
// so a call without a stall holds the reserve's sample and about one
// buffer per worker.
const ringSpanPerWorker = 128

// reserveSampleBlocks is how many blocks' worth of sets, the family's last
// ones topped up by the call's first blocks, the one Reserve of a call
// projects its members from.
const reserveSampleBlocks = 32

// sampleRange is the one body behind both stream forms: samplingWorkers
// workers on ParallelFor, a BFS scratch each, blocks claimed from an atomic
// counter. Which worker draws block b never matters: its rng derives from
// b alone, rng.Split(b)'s stream, which the worker's one Rand is moved to
// in place. A block is drawn into a slot of a ring the workers share
// (blockRing) and copied onto fam's tail once every block before it is
// there, so the only arena a call allocates is fam's own, reserved once.
func (s *Sampler) sampleRange(from, to int, rng *xrand.Rand, fam *SetFamily, withCTP bool) {
	if from%StreamBlockSize != 0 || to%StreamBlockSize != 0 || from > to {
		panic(fmt.Sprintf("rrset: SampleRangeRR range [%d,%d) not block-aligned", from, to))
	}
	firstBlock := from / StreamBlockSize
	numBlocks := (to - from) / StreamBlockSize
	if numBlocks == 0 {
		return
	}
	workers := samplingWorkers(numBlocks)
	ring := newBlockRing(fam, numBlocks, min(numBlocks, ringSpanPerWorker*workers))
	var next atomic.Int64
	ParallelFor(workers, 0, func(int) {
		sc := s.newScratch()
		brng := xrand.New(0)
		for b := int(next.Add(1)) - 1; b < numBlocks; b = int(next.Add(1)) - 1 {
			buf := ring.claim(b)
			brng.Restore(rng.SplitState(uint64(firstBlock + b)))
			for i := 0; i < StreamBlockSize; i++ {
				buf.Append(s.sampleScratch(sc, brng, withCTP))
			}
			ring.finish(b, buf)
		}
	})
}

// blockRing carries one sampleRange call's drawn blocks to fam in block
// order. Block b is drawn into a buffer taken at claim — a spare one, or a
// new one — and waits in drawn[b % len(drawn)] until its append hands the
// buffer back, so at most len(drawn) blocks are out at once and the
// buffers a call allocates are as many as it ever held out. One finisher at
// a time (flushing) appends the ready prefix, copying outside mu; fam is
// written by no one else, and everything before the append point is never
// written again, so readers of fam's earlier views see nothing move.
type blockRing struct {
	fam       *SetFamily
	numBlocks int

	mu       sync.Mutex
	free     sync.Cond    // signalled when appended moves
	drawn    []*SetFamily // drawn[k]: a drawn, unappended block, or nil
	spare    []*SetFamily // appended blocks' buffers, for the next claims
	longest  int          // most members of a block drawn so far: a new buffer's capacity
	appended int          // blocks of this call already in fam
	flushing bool         // a finisher is appending
	reserved bool         // fam has been sized for the call
}

func newBlockRing(fam *SetFamily, numBlocks, span int) *blockRing {
	r := &blockRing{fam: fam, numBlocks: numBlocks, drawn: make([]*SetFamily, span)}
	r.free.L = &r.mu
	return r
}

// claim returns an empty buffer for block b once b is within the span of
// the oldest unappended block.
func (r *blockRing) claim(b int) *SetFamily {
	r.mu.Lock()
	for b >= r.appended+len(r.drawn) {
		r.free.Wait()
	}
	var buf *SetFamily
	if n := len(r.spare); n > 0 {
		buf, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	longest := r.longest
	r.mu.Unlock()
	if buf == nil {
		buf = &SetFamily{offsets: make([]uint32, 1, StreamBlockSize+1), members: make([]int32, 0, longest)}
	}
	buf.offsets, buf.members = buf.offsets[:1], buf.members[:0]
	return buf
}

// finish files block b, drawn into buf, and, unless another finisher is at
// it, flushes.
func (r *blockRing) finish(b int, buf *SetFamily) {
	r.mu.Lock()
	r.drawn[b%len(r.drawn)] = buf
	r.longest = max(r.longest, len(buf.members))
	if !r.flushing {
		r.flushing = true
		r.flush()
		r.flushing = false
	}
	r.mu.Unlock()
}

// flush appends the ready blocks from the append point on, releasing mu
// for each copy. The first append waits for the reserve's sample. Caller
// holds mu.
func (r *blockRing) flush() {
	for r.appended < r.numBlocks {
		k := r.appended % len(r.drawn)
		buf := r.drawn[k]
		if buf == nil {
			break
		}
		if !r.reserved && !r.reserve() {
			break
		}
		r.mu.Unlock()
		r.fam.AppendFamily(buf)
		r.mu.Lock()
		r.drawn[k] = nil
		r.spare = append(r.spare, buf)
		r.appended++
		r.free.Broadcast()
	}
}

// reserve sizes fam once for the whole call from a fixed sample of the
// sets drawn so far — the family's last reserveSampleBlocks blocks' worth,
// topped up by as many of the call's first blocks as that falls short, or
// all the call's blocks when it has fewer — and reports false, reserving
// nothing, while a block of that sample is still out. The sample is the
// same whichever blocks happen to be ready, so the reservation is too.
// The members reserved are the sampled blocks' own plus, for the sets
// still to come, their mean size and three standard errors of the
// projection, so a short reservation (the tail then grows the arena by
// append) is rare and an exact one is free when the sample is the whole
// call. Caller holds mu, and nothing is appended yet.
func (r *blockRing) reserve() bool {
	want := min(r.numBlocks, reserveSampleBlocks) * StreamBlockSize
	tail := min(r.fam.Len(), want)
	own := (want - tail + StreamBlockSize - 1) / StreamBlockSize
	for _, buf := range r.drawn[:own] {
		if buf == nil {
			return false
		}
	}
	var obs, sum, sq float64
	tally := func(offsets []uint32) {
		for i := 1; i < len(offsets); i++ {
			k := float64(offsets[i] - offsets[i-1])
			obs, sum, sq = obs+1, sum+k, sq+k*k
		}
	}
	var drawn int64
	for _, buf := range r.drawn[:own] {
		tally(buf.offsets)
		drawn += buf.NumMembers()
	}
	if tail > 0 {
		tally(r.fam.offsets[r.fam.Len()-tail:])
	}
	rest := float64((r.numBlocks - own) * StreamBlockSize)
	members := float64(drawn)
	if rest > 0 && obs > 0 {
		mean := sum / obs
		sd := math.Sqrt(max(0, sq/obs-mean*mean))
		members += rest*mean + 3*sd*rest/math.Sqrt(min(obs, rest))
	}
	room := float64(maxArena - r.fam.NumMembers())
	r.fam.Reserve(r.numBlocks*StreamBlockSize, int64(math.Ceil(min(members, room))))
	r.reserved = true
	return true
}
