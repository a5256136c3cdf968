// Package shard distributes the RR-set index and its selection loop across
// K processes — the sharding step of the ROADMAP's production north star.
//
// RR sets are i.i.d. samples, so both halves of TIRM decompose over a
// disjoint partition of the sample: a node's residual coverage is the sum
// of its per-shard coverages, and committing a seed retires per-shard sets
// whose effects sum to the global effect. The package exploits exactly
// that decomposition:
//
//   - A Partitioner splits the deterministic block stream round-robin into
//     K disjoint slices (rrset.StreamPartition); shard k samples exactly
//     its blocks, and the union across shards is byte-identical to the
//     single-node stream.
//   - A Shard owns a per-range core.Index epoch — one slice of every ad's
//     sample — and answers coverage / marginal-gain / commit RPCs over an
//     in-process transport (LocalClient) or HTTP (HTTPClient, served by
//     Shard.Handler via cmd/adshard: the run ops in a binary integer codec,
//     wire.go, the lifecycle ops as JSON).
//   - A Coordinator runs core's one greedy loop (core.AllocateOver) over a
//     cluster backend: it merges per-shard pilot widths into the global
//     pilot (so the loop sizes θ exactly as on a single node), gathers
//     per-shard coverage into aggregate counter collections the loop scans
//     with the existing tie-break order, and broadcasts every commit,
//     applying the gathered integer deltas. It numbers each run's
//     Commit/Credit/Grow rounds from 1 (CommitRequest.Seq, required:
//     a shard refuses anything but the next number or an exact replay
//     of the last with ErrBadSeq, 412 over HTTP), which is what makes a
//     retried op safe under any client stack. Campaign mutations
//     (AddAd/RemoveAd) and the epoch counter broadcast the same way, in
//     lockstep across the cluster.
//
// Every quantity that crosses the wire is an integer (set counts, widths,
// coverage counts, sparse decrement vectors); all floating-point
// arithmetic — KPT, marginal gains, regret drops — happens in that one
// loop, on the coordinator. Together with the counter collection reusing
// the exact candidate-heap code of rrset.Collection, that makes the
// coordinator's allocation byte-identical to core.AllocateFromIndex on a
// single-node index at any K and over either transport (pinned by the
// golden tests).
// The one unsupported mode is SoftCoverage: its weighted masses are float
// sums in set order, which do not re-associate exactly across shards.
//
// See DESIGN.md §7 for the partitioning invariant, the determinism
// argument, and the failure modes.
package shard
