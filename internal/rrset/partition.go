// Sharding by ad. The block stream of SampleRangeRRInto makes every set of
// an ad's sample a pure function of (graph, probs, seed, stream id,
// position), so where a stream is drawn never changes what it holds. A
// StreamPartition places whole streams: slot k of a K-way partition owns
// every stream whose id t has t mod K = k, holds all of each such stream —
// the very arena a single node would hold — and nothing of the others. The
// K slots are disjoint and their union is the single-node index. Whole
// streams rather than slices of each, because TIRM keeps one RR collection
// per ad (R_j of Algorithm 2): ads interact only through the attention
// counters and the cross-ad argmax, which a coordinator holds, so every
// coverage operation on ad j needs ad j's owner and no other slot.

package rrset

import "fmt"

// StreamPartition identifies one slot of a K-way placement of ad streams:
// the slot owns the streams t with t ≡ Shard (mod NumShards). The zero
// value (and any NumShards ≤ 1) is the identity partition that owns every
// stream — a single node.
type StreamPartition struct {
	// NumShards is K, the total number of disjoint slots.
	NumShards int
	// Shard is this slot's index in [0, NumShards).
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

// IsIdentity reports whether the partition owns every stream.
func (p StreamPartition) IsIdentity() bool { return p.Size() == 1 }

// Validate checks the partition's shape.
func (p StreamPartition) Validate() error {
	if p.NumShards < 0 || p.Shard < 0 || p.Shard >= p.Size() {
		return fmt.Errorf("rrset: stream partition shard %d of %d is invalid", p.Shard, p.NumShards)
	}
	return nil
}

// SlotOf returns the slot of a K-way partition that owns stream t: t mod K.
func SlotOf(stream uint64, k int) int { return int(stream % uint64(max(k, 1))) }

// Owns reports whether this slot owns stream t.
func (p StreamPartition) Owns(stream uint64) bool { return SlotOf(stream, p.Size()) == p.Shard }
