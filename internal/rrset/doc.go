// Package rrset is the reverse-reachable-set substrate the allocation
// algorithms run on: RR-set sampling by reverse BFS (Sampler), the
// deterministic block stream that makes samples growable and restartable
// and is the only way to draw RR- or RRC-sets (SampleRangeRRInto,
// SampleRangeRRCInto, StreamBlockSize), flat-arena set storage and
// inverted indexes in CSR form (SetFamily, FamilyView, Inverted), the
// residual-coverage collections TIRM's greedy selection queries
// (Collection for the paper's hard removal, WeightedCollection for the
// soft-CTP TIRM-W extension), the θ sample-size bound of Eq. 5 (L, Theta),
// and the versioned binary snapshot codec (EncodeSetFamily,
// DecodeSetFamily).
//
// Two properties carry the whole serving layer above it. First,
// determinism: set i of a stream is a pure function of (graph,
// probabilities, seed, i), independent of batch boundaries, growth
// history, and worker count, so a long-lived sample can grow under any
// request interleaving — or reload from disk — and stay byte-identical.
// Second, stable views: arenas are append-only and FamilyViews taken
// before an append remain valid while the family grows, which is what lets
// concurrent selection runs read consistent prefixes of a sample that is
// still being extended. See DESIGN.md §3 and §6.
package rrset
