package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rrset"
)

// streamsOf returns the stream id each ad of the current epoch reports.
func streamsOf(idx *Index) []uint64 {
	ads := idx.curr.Load().ads
	out := make([]uint64, len(ads))
	for j, a := range ads {
		out[j] = a.stream
	}
	return out
}

// mixedInstance is randomInstance with ads 1 and 3 drawing from vectors of
// their own: ads 0, 2 and 4 share one sample, ads 1 and 3 have one each.
func mixedInstance(seed uint64, h int) *Instance {
	inst := randomInstance(seed, 60, 240, h, 2, 0.005)
	for j := 1; j < h; j += 2 {
		inst.Ads[j].Params.Probs = slices.Clone(inst.Ads[j].Params.Probs)
	}
	return inst
}

// TestCloneJoinsTemplateSample: an ad added with its template's vector —
// what CloneAd builds — draws no set and reports the template's stream id,
// though it spends an id of its own; removing the template leaves the
// clone serving from the same sample, and a later ad with a vector of its
// own gets a fresh id, never a spent one.
func TestCloneJoinsTemplateSample(t *testing.T) {
	inst := mixedInstance(3, 2)
	idx, err := BuildIndex(inst, 9, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := CloneAd(inst, AdSpec{Name: "clone", Template: 1, Budget: 3, CPE: 1, CTP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	before := idx.SetsSampled()
	pos, err := idx.AddAd(clone, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.SetsSampled(); got != before {
		t.Fatalf("the clone's AddAd drew %d sets, want 0", got-before)
	}
	if got, want := streamsOf(idx), []uint64{0, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("streams %v after the clone, want %v", got, want)
	}
	ep := idx.curr.Load()
	if ep.ads[pos] != ep.ads[1] {
		t.Fatal("the clone holds a sample of its own")
	}
	want, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, Ads: []int{pos}})
	if err != nil {
		t.Fatal(err)
	}

	if err := idx.RemoveAd(1); err != nil {
		t.Fatal(err)
	}
	if got := streamsOf(idx); !slices.Equal(got, []uint64{0, 1}) {
		t.Fatalf("streams %v after removing the template, want [0 1]", got)
	}
	got, err := AllocateFromIndex(idx, Request{Opts: lifecycleOpts, Ads: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSetsSampled != 0 || !reflect.DeepEqual(got.Alloc.Seeds[1], want.Alloc.Seeds[pos]) ||
		got.EstRevenue[1] != want.EstRevenue[pos] {
		t.Fatalf("the clone alone allocates %v (%v, %d sets drawn), with its template present %v (%v)",
			got.Alloc.Seeds[1], got.EstRevenue[1], got.TotalSetsSampled, want.Alloc.Seeds[pos], want.EstRevenue[pos])
	}

	own := inst.Ads[0]
	own.Name = "own"
	own.Params.Probs = slices.Clone(own.Params.Probs)
	before = idx.SetsSampled()
	if _, err := idx.AddAd(own, lifecycleOpts); err != nil {
		t.Fatal(err)
	}
	if got := streamsOf(idx); !slices.Equal(got, []uint64{0, 1, 3}) {
		t.Fatalf("streams %v after an ad with its own vector, want [0 1 3]: ids 2 and 3 are spent", got)
	}
	if idx.SetsSampled() == before {
		t.Fatal("an ad with a vector of its own drew no sets")
	}
}

// TestMutatedIndexMatchesColdBuild: an index grown one ad at a time —
// shared and own vectors interleaved — holds the samples, stream ids and
// allocations of a cold BuildIndex over the same ad list and seed, and
// draws the same number of sets.
func TestMutatedIndexMatchesColdBuild(t *testing.T) {
	full := mixedInstance(11, 5)
	cold, err := BuildIndex(full, 4, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	partial := *full
	partial.Ads = full.Ads[:1]
	warm, err := BuildIndex(&partial, 4, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range full.Ads[1:] {
		if _, err := warm.AddAd(ad, lifecycleOpts); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := streamsOf(warm), streamsOf(cold); !slices.Equal(got, want) || !slices.Equal(want, []uint64{0, 1, 0, 3, 0}) {
		t.Fatalf("streams: mutated %v, cold %v, want [0 1 0 3 0]", got, want)
	}
	if numSamples(cold) != 3 || numSamples(warm) != 3 {
		t.Fatalf("%d and %d samples, want 3", numSamples(cold), numSamples(warm))
	}
	if warm.SetsSampled() != cold.SetsSampled() || warm.MemBytes() != cold.MemBytes() {
		t.Fatalf("mutated index drew %d sets into %d bytes, cold build %d into %d",
			warm.SetsSampled(), warm.MemBytes(), cold.SetsSampled(), cold.MemBytes())
	}
	for _, req := range []Request{{Opts: lifecycleOpts}, {Opts: TIRMOptions{MinTheta: 4000, MaxTheta: 40000, Eps: 0.2}}, {Opts: lifecycleOpts, Ads: []int{4, 2}}} {
		a, err := AllocateFromIndex(cold, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AllocateFromIndex(warm, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snapshotOf(a), snapshotOf(b)) || a.TotalSetsSampled != b.TotalSetsSampled {
			t.Fatalf("mutated index allocates %+v (%d drawn), cold build %+v (%d drawn)",
				snapshotOf(b), b.TotalSetsSampled, snapshotOf(a), a.TotalSetsSampled)
		}
	}
}

// TestSnapshotWritesSharedSampleOnce: a snapshot of a mixed campaign lists
// every ad's stream id, repeats included, and holds one section per
// distinct id; it reloads to the same samples, the same sharing and the
// same allocations, and re-writes to the same bytes.
func TestSnapshotWritesSharedSampleOnce(t *testing.T) {
	inst := mixedInstance(21, 5)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := BuildIndex(inst, 13, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sections := snapshotSections(t, snap.Bytes(), 5, 3)
	if len(sections) != 4 {
		t.Fatalf("%d sections, want 3", len(sections)-1)
	}
	loaded, err := LoadIndexSnapshot(inst, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := streamsOf(loaded); !slices.Equal(got, []uint64{0, 1, 0, 3, 0}) || numSamples(loaded) != 3 {
		t.Fatalf("loaded streams %v over %d samples, want [0 1 0 3 0] over 3", got, numSamples(loaded))
	}
	if loaded.next != 5 {
		t.Fatalf("loaded index assigns stream id %d next, want 5", loaded.next)
	}
	got, err := AllocateFromIndex(loaded, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotOf(got), snapshotOf(want)) || got.TotalSetsSampled != 0 {
		t.Fatalf("loaded index allocates %+v (%d drawn), want %+v", snapshotOf(got), got.TotalSetsSampled, snapshotOf(want))
	}
	var again bytes.Buffer
	if err := loaded.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("re-written snapshot differs from the one loaded")
	}
}

// TestBindRefusesSharedIDWithoutSharedVector: a snapshot whose ads share a
// stream id binds only to an instance whose ads share the vector too — the
// sample is one distribution's — and the refusal names the ad. A shard's
// slot is held to the same rule.
func TestBindRefusesSharedIDWithoutSharedVector(t *testing.T) {
	inst := mixedInstance(21, 3) // ads 0 and 2 share stream 0
	for _, part := range []rrset.StreamPartition{{}, {NumShards: 2, Shard: 1}} {
		idx, err := BuildShardIndex(inst, 13, part)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := idx.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		bind := func(on *Instance) error {
			s, err := ReadIndexSnapshot(bytes.NewReader(snap.Bytes()), part)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Bind(on)
			return err
		}
		if err := bind(inst); err != nil {
			t.Fatalf("slot %d/%d: Bind to the instance written: %v", part.Shard, part.Size(), err)
		}
		// Same content, so the fingerprint matches; another array for ad 2.
		split := *inst
		split.Ads = slices.Clone(inst.Ads)
		split.Ads[2].Params.Probs = slices.Clone(split.Ads[2].Params.Probs)
		err = bind(&split)
		if err == nil || !strings.Contains(err.Error(), "ad 2 shares stream 0 with ad 0, but not its probability vector") {
			t.Fatalf("slot %d/%d: Bind of a split vector: %v, want a refusal naming ad 2", part.Shard, part.Size(), err)
		}
	}
}

// TestReloadKeepsSpentStreamIDs: an ad added and removed before a snapshot
// spent its stream id, and the reloaded index must not hand that id out
// again. A fourth ad, added and removed, leaves three live ads over ids 0 to
// 2 with id 3 spent; after the reload an AddAd on either index takes id 4
// and both allocate alike, down to the new ad's sample.
func TestReloadKeepsSpentStreamIDs(t *testing.T) {
	inst := ownVectors(randomInstance(31, 60, 240, 3, 1, 0))
	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := BuildIndex(inst, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := idx.AddAd(extraNamed(inst, "short-lived"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(pos); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(idx.Inst(), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	late := extraNamed(inst, "late")
	for _, on := range []*Index{idx, loaded} {
		pos, err := on.AddAd(late, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := on.curr.Load().ads[pos].stream; s != 4 {
			t.Fatalf("AddAd after the removal took stream id %d, want 4: id 3 is spent", s)
		}
	}
	want, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AllocateFromIndex(loaded, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotOf(got), snapshotOf(want)) {
		t.Fatalf("reloaded index allocates %+v, the original %+v", snapshotOf(got), snapshotOf(want))
	}
}

// TestReadRefusesNextBelowStreams: a header whose next stream id is below
// the ad count, or not above every stream id, is refused on read, CRC
// intact or not, so a later AddAd can never reuse a spent id.
func TestReadRefusesNextBelowStreams(t *testing.T) {
	inst := ownVectors(randomInstance(32, 40, 160, 3, 1, 0))
	idx, err := BuildIndex(inst, 5, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveAd(0); err != nil { // live ids 1 and 2, next 3
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	hdrLen := 4 + 4 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 8*2 + 4
	for _, tc := range []struct {
		next uint64
		want string
	}{
		{1, "next stream id 1 is invalid for 2 ads"},
		{2, "ad 1 has stream id 2, not below the next stream id 2"},
		{math.MaxUint64, "is invalid for 2 ads"},
	} {
		h, err := readIndexHeader(bytes.NewReader(snap.Bytes()), rrset.StreamPartition{})
		if err != nil {
			t.Fatal(err)
		}
		h.next = tc.next
		payload := h.marshal()
		file := le.AppendUint32(le.AppendUint32(nil, indexMagic), indexVersion)
		file = le.AppendUint32(append(file, payload...), crc32.ChecksumIEEE(payload))
		file = append(file, snap.Bytes()[hdrLen:]...)
		if _, err := LoadIndexSnapshot(idx.Inst(), bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("next stream id %d: %v, want %q", tc.next, err, tc.want)
		}
	}
}
