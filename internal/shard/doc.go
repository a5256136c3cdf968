// Package shard distributes the RR-set index and its selection loop across
// K processes — the sharding step of the ROADMAP's production north star.
//
// TIRM keeps one RR-set collection per ad (R_j of Algorithm 2), and ads
// interact only through the attention counters κ_u and the cross-ad
// argmax — both of which the coordinator holds. So the package places
// whole ads, not slices of every ad:
//
//   - A Partitioner names K slots (rrset.StreamPartition); slot k owns
//     every ad whose stream id t has t mod K = k and holds that ad's whole
//     sample, the very arena a single node would hold, and nothing of the
//     other ads. Stream ids come from the campaign's history (AddAd hands
//     out the next one), so a shard needs no placement manifest: its
//     snapshot header already stores the ids.
//   - A Shard owns a per-slot core.Index epoch and answers pilot /
//     coverage / marginal-gain / commit RPCs for its own ads — and refuses
//     any op naming an ad it does not own — over an in-process transport
//     (LocalClient) or HTTP (HTTPClient, served by Shard.Handler via
//     cmd/adshard: the run ops in a binary integer codec, wire.go, the
//     lifecycle ops as JSON — one frame per op, frames.go, on every
//     connection the daemon upgrades).
//   - A Coordinator runs core's one greedy loop (core.AllocateOver) over a
//     cluster backend. It learns each campaign position's stream id from
//     the shards (Info at connect, then every AddAd reply), mirrors each
//     active ad's residual coverage in a counter collection the loop scans
//     with the existing tie-break order, and sends every per-ad op — commit,
//     credit, grow, gains, ensure — to the ad's owner alone, applying the
//     integer reply; pilot, start and end go to the slots that own one of
//     the run's ads. It numbers each slot's Commit/Credit/Grow rounds of a
//     run from 1 (CommitRequest.Seq, required: a shard refuses anything but
//     the next number or an exact retry of the last with ErrBadSeq, 412
//     over HTTP), which makes an in-place retry safe under any client
//     stack; a run a shard loses is re-run whole under a fresh run id.
//     Campaign mutations (AddAd/RemoveAd) and the epoch counter broadcast
//     to every shard in lockstep.
//
// Every quantity that crosses the wire is an integer (set counts, widths,
// coverage counts, sparse decrement vectors); all floating-point
// arithmetic — KPT, marginal gains, regret drops — happens in that one
// loop, on the coordinator. Revenue, the one thing an ad's CPE feeds, is
// computed there too, so a shard holds no bandit state: the online CPE
// estimator (internal/bandit) lives on the serving host alone. Together
// with the counter collection reusing the exact candidate-heap code of
// rrset.Collection, that makes the coordinator's allocation byte-identical
// to core.AllocateFromIndex on a single-node index at any K and over
// either transport (pinned by the golden tests).
// The one unsupported mode is SoftCoverage: its weighted masses are
// floats, and the coordinator's mirror holds integer counts only.
//
// See DESIGN.md §7 for the placement rule, the determinism argument, and
// the failure modes.
package shard
