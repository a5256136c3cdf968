package shard

import (
	"fmt"

	"repro/internal/rrset"
)

// Partitioner names the K slots of a cluster. Slot k owns every ad whose
// stream id t has t mod K = k — its whole sample, nothing of the other ads
// (see rrset.StreamPartition) — so the union of the K slots is the
// single-node index at any θ.
type Partitioner struct {
	k int
}

// NewPartitioner creates a K-way partitioner (K ≥ 1; K = 1 is the
// single-node identity split).
func NewPartitioner(k int) (Partitioner, error) {
	if k < 1 {
		return Partitioner{}, fmt.Errorf("shard: partitioner needs K ≥ 1, got %d", k)
	}
	return Partitioner{k: k}, nil
}

// NumShards returns K.
func (p Partitioner) NumShards() int { return p.k }

// Range returns slot k — the partition a BuildShardIndex shard samples
// with.
func (p Partitioner) Range(k int) rrset.StreamPartition {
	return rrset.StreamPartition{NumShards: p.k, Shard: k}
}
