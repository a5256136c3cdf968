// EpochView: the pinned-epoch sample access the shard runtime builds on.
// A shard (internal/shard) owns a per-slot core.Index — the whole sample of
// every ad whose stream its slot owns — and serves coverage state to a
// coordinator that runs selection globally. The coordinator's steps need
// exactly what a single-node selection run takes from its index, against a
// pinned epoch: pilot widths (for KPT), views with inverted indexes (to
// build coverage collections), growth windows (θ increases mid-run), and
// warm-up. This file exports those steps; the floats derived from them
// (KPT, marginal gains, regret drops) are computed on the coordinator by
// core's own loop (AllocateOver), never on shards — which is what keeps the
// transport free of float-serialization hazards.

package core

import (
	"repro/internal/rrset"
)

// Partition returns the slot of the stream placement this index holds
// (the identity partition for a normal single-node index).
func (idx *Index) Partition() rrset.StreamPartition { return idx.part }

// InstanceFingerprint summarizes the inputs an index's stored sample
// depends on — graph topology and every ad's mixed edge probabilities (see
// the snapshot format). The shard coordinator compares fingerprints across
// shards to refuse a cluster whose members were built from different
// instances.
func InstanceFingerprint(inst *Instance) uint64 { return indexFingerprint(inst) }

// EpochView pins one campaign epoch of an index for external sample
// access: every method answers against the same immutable (instance,
// per-ad samples) pair no matter how many AddAd/RemoveAd swaps land
// concurrently, exactly like an in-flight allocation. Sample growth
// triggered through a view is accounted to the index's SetsSampled.
//
// Positions index an ad's stream, as on a single node. The sample methods
// (AdHave, AdPilot, AdView, AdWindow, AdEnsure) are for ads the index's
// slot owns (Owns); the caller checks first.
type EpochView struct {
	ep *indexEpoch
}

// CurrentEpoch returns a view pinned to the index's current epoch.
func (idx *Index) CurrentEpoch() EpochView {
	return EpochView{ep: idx.curr.Load()}
}

// Version returns the pinned epoch's version.
func (v EpochView) Version() uint64 { return v.ep.version }

// Inst returns the pinned epoch's instance (a stable snapshot).
func (v EpochView) Inst() *Instance { return v.ep.inst }

// NumAds returns the pinned epoch's advertiser count.
func (v EpochView) NumAds() int { return len(v.ep.ads) }

// AdStream returns ad j's stream id, which names its owner slot.
func (v EpochView) AdStream(j int) uint64 { return v.ep.ads[j].stream }

// Owns reports whether the index's slot holds ad j's sample.
func (v EpochView) Owns(j int) bool { return v.ep.ads[j].owned() }

// AdHave returns how many sets ad j's sample currently stores, without
// growing it — the warm-start baseline a run reports as reused.
func (v EpochView) AdHave(j int) int { return v.ep.ads[j].size() }

// AdPilot returns ad j's widths for the stream prefix [0, want), growing
// the sample if needed. The returned slice is a stable snapshot (growth
// only appends past it) and must be treated as read-only.
func (v EpochView) AdPilot(j, want int) (widths []int64, fresh int64) {
	return v.ep.ads[j].prefix(want)
}

// AdView returns ad j's sets for the prefix [0, want) plus the shared
// inverted index over them, growing the sample and syncing the index if
// needed — the warm handoff to a coverage collection.
func (v EpochView) AdView(j, want int) (sets rrset.FamilyView, inv *rrset.Inverted, fresh int64) {
	return v.ep.ads[j].view(want)
}

// AdWindow returns ad j's stream sets [from, to) as a stable view, growing
// the sample if needed — the growth segment a selection run appends to its
// coverage state when θ rises.
func (v EpochView) AdWindow(j, from, to int) (sets rrset.FamilyView, fresh int64) {
	return v.ep.ads[j].window(from, to)
}

// AdEnsure grows ad j's sample to hold the prefix [0, want) and syncs its
// inverted index — the coordinator-driven equivalent of BuildIndex's
// presampling, run once the coordinator has sized θ from the ad's pilot
// widths.
func (v EpochView) AdEnsure(j, want int) (fresh int64) {
	return v.ep.ads[j].warm(want)
}
