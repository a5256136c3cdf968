// Sharding the deterministic RR stream. The block stream of
// SampleRangeRRInto makes every set a pure function of (graph, probs, seed,
// position); a StreamPartition assigns each block to exactly one of K
// shards, so shard k can sample exactly its blocks and the union across
// shards is byte-identical to the single-node stream. Blocks are assigned
// round-robin (block b belongs to shard b mod K) rather than in contiguous
// halves: the stream grows on demand as θ targets rise, and an interleaved
// assignment keeps every shard's share balanced at every prefix length —
// a contiguous split would put all early (always-sampled) blocks on one
// shard and leave the rest idle until θ grows past its range.

package rrset

import "fmt"

// StreamPartition identifies one shard's slice of the deterministic RR
// block stream: of the global blocks, this shard owns those with
// id ≡ Shard (mod NumShards). The zero value (and any NumShards ≤ 1) is
// the identity partition that owns every block — a single-node stream.
type StreamPartition struct {
	// NumShards is K, the total number of disjoint slices.
	NumShards int
	// Shard is this slice's index in [0, NumShards).
	Shard int
}

// Size returns the effective shard count K (the identity partition — any
// NumShards ≤ 1 — is K = 1).
func (p StreamPartition) Size() int {
	if p.NumShards <= 1 {
		return 1
	}
	return p.NumShards
}

// k is Size, short-form for the arithmetic below.
func (p StreamPartition) k() int { return p.Size() }

// IsIdentity reports whether the partition owns the whole stream.
func (p StreamPartition) IsIdentity() bool { return p.k() == 1 }

// Validate checks the partition's shape.
func (p StreamPartition) Validate() error {
	if p.NumShards < 0 || p.Shard < 0 || p.Shard >= p.k() {
		return fmt.Errorf("rrset: stream partition shard %d of %d is invalid", p.Shard, p.NumShards)
	}
	return nil
}

// Owner returns the shard that owns global block b.
func (p StreamPartition) Owner(block int) int { return block % p.k() }

// ownedBlocksBelow returns how many of the global blocks [0, numBlocks)
// this shard owns.
func (p StreamPartition) ownedBlocksBelow(numBlocks int) int {
	if numBlocks <= p.Shard {
		return 0
	}
	return (numBlocks - p.Shard + p.k() - 1) / p.k()
}

// LocalCount returns how many of the global stream positions [0, theta)
// this shard owns — the length of the shard-local prefix that corresponds
// to a global prefix of theta sets. For the identity partition it is theta
// itself.
func (p StreamPartition) LocalCount(theta int) int {
	if theta <= 0 {
		return 0
	}
	full := theta / StreamBlockSize
	count := p.ownedBlocksBelow(full) * StreamBlockSize
	if rem := theta % StreamBlockSize; rem > 0 && p.Owner(full) == p.Shard {
		count += rem
	}
	return count
}

// Resume returns the canonical global block-aligned prefix position to
// resume sampling from when this shard already holds localSets sets
// (a multiple of StreamBlockSize): one global block past the shard's last
// sampled block. Growth from this position samples exactly the shard's
// not-yet-drawn blocks — none twice, none skipped.
func (p StreamPartition) Resume(localSets int) int {
	blocks := localSets / StreamBlockSize
	if blocks == 0 {
		return 0
	}
	return (p.Shard + (blocks-1)*p.k() + 1) * StreamBlockSize
}
