package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// TestSnapshotAfterRemoveAdRoundTrip pins the mutated-campaign restart
// path: a snapshot taken after AddAd/RemoveAd mutations (which decouple
// stream ids from positions) must reload with the identical stream ids and
// produce byte-identical subsequent allocations — including post-reload
// sample growth, which silently diverges if any stream id is wrong. A
// re-save of the loaded index must reproduce the snapshot bytes exactly
// (same header, same stream ids, same arenas). Every ad draws from its own
// vector, so every ad has a stream of its own.
func TestSnapshotAfterRemoveAdRoundTrip(t *testing.T) {
	inst := ownVectors(randomInstance(77, 40, 160, 3, 1, 0))
	opts := TIRMOptions{MinTheta: 4096, MaxTheta: 8192}
	idx, err := BuildIndex(inst, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: add a fourth ad (stream id 3), remove the middle original
	// (positions shift; stream ids now [0, 2, 3]).
	if _, err := idx.AddAd(extraNamed(inst, "late-arrival"), opts); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	if got := idx.Epoch(); got != 3 {
		t.Fatalf("epoch %d after two mutations, want 3", got)
	}
	mutInst := idx.Inst()
	want, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(mutInst, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Stream ids must survive: [0, 2, 3], not positional [0, 1, 2].
	wantStreams := []uint64{0, 2, 3}
	for j, a := range loaded.curr.Load().ads {
		if a.stream != wantStreams[j] {
			t.Fatalf("loaded ad %d has stream id %d, want %d", j, a.stream, wantStreams[j])
		}
	}
	// A re-save (before any growth) must be byte-identical to the first
	// snapshot — header, stream ids, arenas, CRCs.
	var resave bytes.Buffer
	if err := loaded.WriteSnapshot(&resave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), resave.Bytes()) {
		t.Fatalf("re-saved snapshot differs from the original (%d vs %d bytes)", snap.Len(), resave.Len())
	}
	// The loaded index starts a fresh epoch lineage at 1, and epoch-pinned
	// requests against it must work.
	if got := loaded.Epoch(); got != 1 {
		t.Fatalf("loaded index epoch %d, want fresh lineage 1", got)
	}
	got, err := AllocateFromIndex(loaded, Request{Opts: opts, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Alloc.Seeds, got.Alloc.Seeds) {
		t.Fatalf("post-reload allocation diverged\n want %v\n  got %v", want.Alloc.Seeds, got.Alloc.Seeds)
	}
	if !reflect.DeepEqual(want.EstRevenue, got.EstRevenue) {
		t.Fatalf("post-reload revenues diverged\n want %v\n  got %v", want.EstRevenue, got.EstRevenue)
	}

	// Post-reload growth continues the exact streams: force θ past the
	// stored prefix on both indexes and compare again.
	grow := TIRMOptions{MinTheta: 4096, MaxTheta: 16384}
	wantGrown, err := AllocateFromIndex(idx, Request{Opts: grow})
	if err != nil {
		t.Fatal(err)
	}
	gotGrown, err := AllocateFromIndex(loaded, Request{Opts: grow})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantGrown.Alloc.Seeds, gotGrown.Alloc.Seeds) {
		t.Fatal("post-reload growth diverged from the original index's streams")
	}

	// A new ad on the loaded index must not reuse a departed stream id:
	// next unused is 4.
	pos, err := loaded.AddAd(extraNamed(inst, "after-reload"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := loaded.curr.Load().ads[pos].stream; s != 4 {
		t.Fatalf("post-reload AddAd got stream id %d, want 4", s)
	}
}

// extraNamed copies the instance's first ad under a new name, with a copy
// of its vector: a new ad with a stream of its own.
func extraNamed(inst *Instance, name string) Ad {
	ad := inst.Ads[0]
	ad.Name = name
	ad.Params.Probs = slices.Clone(ad.Params.Probs)
	return ad
}
