package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/rrset"
)

// snapshotSections returns where each sample's family section begins in an
// index snapshot of numAds ads, plus the file's length as a final entry, by
// walking the layout: the header (magic, version, seed, fingerprint, node
// count, partition, next stream id, ad count, stream ids, CRC), then per
// sample a section of magic, set count, member count, lengths, members and
// CRC.
func snapshotSections(t *testing.T, snap []byte, numAds, numSamples int) []int {
	t.Helper()
	at := 4 + 4 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 8*numAds + 4
	starts := make([]int, 0, numSamples+1)
	for j := 0; j < numSamples; j++ {
		starts = append(starts, at)
		count := binary.LittleEndian.Uint32(snap[at+4:])
		total := binary.LittleEndian.Uint64(snap[at+8:])
		at += 4 + 12 + 4*int(count) + 4*int(total) + 4
	}
	if at != len(snap) {
		t.Fatalf("snapshot walk ends at byte %d of %d", at, len(snap))
	}
	return append(starts, at)
}

// TestLoadIndexSnapshotAtAnyWorkerCap: a loaded index is the index it was
// written from — per-ad set counts, a full allocation down to revenue
// estimates and θ, and, once it has served that allocation too, the exact
// footprint (a load derives the inverted index; pilot widths and openings
// arrive with the first request on either index) — whether the per-ad
// rebuild runs inline (one worker) or fanned out, and the fan-out leaves no
// goroutine behind.
func TestLoadIndexSnapshotAtAnyWorkerCap(t *testing.T) {
	defer rrset.SetMaxWorkers(0)
	inst := randomInstance(77, 90, 400, 5, 2, 0.01)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := BuildIndex(inst, 13, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := AllocateFromIndex(idx, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(ref)
	// After the allocation, so the snapshot holds whatever it grew.
	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 0} {
		rrset.SetMaxWorkers(workers)
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			loaded, err := LoadIndexSnapshot(inst, bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.NumAds() != idx.NumAds() {
				t.Fatalf("loaded %d ads, want %d", loaded.NumAds(), idx.NumAds())
			}
			if loaded.MemBytes() >= idx.MemBytes() {
				t.Fatalf("loaded index holds %d bytes before serving anything, the served one %d — the load derived request-time state",
					loaded.MemBytes(), idx.MemBytes())
			}
			for j := 0; j < idx.NumAds(); j++ {
				if loaded.NumSets(j) != idx.NumSets(j) {
					t.Fatalf("ad %d holds %d sets, want %d", j, loaded.NumSets(j), idx.NumSets(j))
				}
			}
			res, err := AllocateFromIndex(loaded, Request{Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotOf(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("allocation on the loaded index diverged:\n got %+v\nwant %+v", got, want)
			}
			if res.TotalSetsSampled != 0 {
				t.Fatalf("allocation on the loaded index drew %d sets", res.TotalSetsSampled)
			}
			if res.OpeningsBuilt != numSamples(idx) {
				t.Fatalf("first allocation on the loaded index built %d openings, want one per sample", res.OpeningsBuilt)
			}
			if loaded.MemBytes() != idx.MemBytes() {
				t.Fatalf("after the same allocation the loaded index holds %d bytes, the built one %d",
					loaded.MemBytes(), idx.MemBytes())
			}
			// Same bytes out as in: nothing the load derives leaks into the file.
			var again bytes.Buffer
			if err := loaded.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), snap.Bytes()) {
				t.Fatal("re-written snapshot differs from the one loaded")
			}
		})
	}
}

// TestLoadIndexSnapshotErrorPrecedence pins which error a bad snapshot
// reports now that the fingerprint check and the sections are examined
// concurrently: the first corrupt section in file order, by ad position; a
// fingerprint mismatch ahead of any section error; and in every case no
// worker left running. Each ad draws from its own vector, so each has a
// section.
func TestLoadIndexSnapshotErrorPrecedence(t *testing.T) {
	defer rrset.SetMaxWorkers(0)
	const numAds = 5
	inst := ownVectors(randomInstance(77, 90, 400, numAds, 2, 0.01))
	other := ownVectors(randomInstance(78, 90, 400, numAds, 2, 0.01))
	idx, err := BuildIndex(inst, 13, TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	sections := snapshotSections(t, snap, numAds, numAds)
	// corrupt flips one bit in the middle of each named ad's section, which
	// fails it whatever the bit was (a length or range check, or the CRC).
	corrupt := func(ads ...int) []byte {
		bad := bytes.Clone(snap)
		for _, j := range ads {
			bad[(sections[j]+sections[j+1])/2] ^= 0x40
		}
		return bad
	}

	for _, workers := range []int{1, 2, 0} {
		rrset.SetMaxWorkers(workers)
		fails := func(what string, on *Instance, snap []byte, want string) {
			t.Helper()
			t.Run(fmt.Sprintf("workers=%d/%s", workers, what), func(t *testing.T) {
				leakcheck.Check(t)
				_, err := LoadIndexSnapshot(on, bytes.NewReader(snap))
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error %v, want one containing %q", err, want)
				}
			})
		}
		for j := 0; j < numAds; j++ {
			fails(fmt.Sprintf("corrupt ad %d", j), inst, corrupt(j), fmt.Sprintf("index snapshot ad %d:", j))
		}
		fails("corrupt ads 3 and 1", inst, corrupt(3, 1), "index snapshot ad 1:")
		fails("truncated in ad 2", inst, snap[:sections[2]+40], "index snapshot ad 2:")
		fails("other instance", other, snap, "fingerprint")
		fails("other instance, corrupt ad 0", other, corrupt(0), "fingerprint")
		fails("other instance, corrupt ad 4", other, corrupt(4), "fingerprint")
		fails("other instance, truncated in ad 1", other, snap[:sections[1]+40], "fingerprint")
	}
}

// TestReadThenBind: a snapshot read with no instance at hand binds to its
// own instance as LoadIndexSnapshot loads it, and only once; Bind refuses an
// instance with another ad count or node count by name, ahead of the
// fingerprint.
func TestReadThenBind(t *testing.T) {
	inst := randomInstance(77, 90, 400, 3, 2, 0.01)
	opts := TIRMOptions{Eps: 0.3, MinTheta: 2000, MaxTheta: 16000}
	idx, err := BuildIndex(inst, 13, opts)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := idx.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	read := func() *IndexSnapshot {
		t.Helper()
		s, err := ReadIndexSnapshot(bytes.NewReader(snap.Bytes()), rrset.StreamPartition{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := read()
	bound, err := s.Bind(inst)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexSnapshot(inst, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllocateFromIndex(bound, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllocateFromIndex(loaded, Request{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotOf(a), snapshotOf(b)) || a.TotalSetsSampled != 0 {
		t.Fatalf("Read then Bind allocates %+v (%d sets drawn), LoadIndexSnapshot %+v", snapshotOf(a), a.TotalSetsSampled, snapshotOf(b))
	}
	if _, err := s.Bind(inst); err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Fatalf("second Bind: %v, want a refusal", err)
	}

	fewer := *inst
	fewer.Ads = inst.Ads[:2]
	if _, err := read().Bind(&fewer); err == nil || !strings.Contains(err.Error(), "has 3 ads, instance has 2") {
		t.Fatalf("Bind to two ads: %v, want the ad-count error", err)
	}
	bigger := randomInstance(77, 91, 400, 3, 2, 0.01)
	if _, err := read().Bind(bigger); err == nil || !strings.Contains(err.Error(), "has 90 nodes, instance has 91") {
		t.Fatalf("Bind to 91 nodes: %v, want the node-count error", err)
	}
}

// TestWriteSnapshotFileIsAtomic: the file a WriteSnapshotFile leaves is the
// WriteSnapshot stream, in a directory it creates; and a write that fails
// part-way leaves the previous file untouched and no temporary file beside
// it.
func TestWriteSnapshotFileIsAtomic(t *testing.T) {
	inst := randomInstance(5, 40, 160, 3, 2, 0.02)
	idx, err := BuildIndex(inst, 3, TIRMOptions{Eps: 0.3, MinTheta: 500, MaxTheta: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := idx.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	path := filepath.Join(dir, "x.adix")
	if err := idx.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	onlyTarget := func(when string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: target differs from the WriteSnapshot stream (err %v)", when, err)
		}
		if names, _ := os.ReadDir(dir); len(names) != 1 {
			t.Fatalf("%s: %d files in the snapshot directory, want the target alone", when, len(names))
		}
	}
	onlyTarget("after a clean write")

	torn := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		w.Write(want.Bytes()[:want.Len()/2])
		return torn
	})
	if !errors.Is(err, torn) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	onlyTarget("after a failed write")
}

// FuzzIndexHeader feeds arbitrary bytes to readIndexHeader, the first read
// of every restore, under every caller shape: it must never panic, and an
// input it accepts must be one it decoded completely — its prefix is
// exactly the header it returned, rendered back with magic, version and
// CRC, for the partition slot the caller expects. Seeds: the headers a
// single node and a shard write — over ads that share one sample, so their
// stream ids repeat, and over ads with a stream each — the same under
// versions 5 and 7, one whose next stream id is above its ad count and
// every stream id, one whose shard count is zeroed under the one-shard
// CRC, truncations, and a wrong magic.
func FuzzIndexHeader(f *testing.F) {
	shared := randomInstance(5, 40, 120, 3, 1, 0)
	header := func(inst *Instance, part rrset.StreamPartition) []byte {
		idx, err := BuildShardIndex(inst, 9, part)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[:4+4+40+8*len(inst.Ads)+4]
	}
	for _, inst := range []*Instance{shared, ownVectors(shared)} {
		for _, p := range []rrset.StreamPartition{{}, {NumShards: 4, Shard: 2}} {
			h, err := readIndexHeader(bytes.NewReader(header(inst, p)), p)
			if err != nil {
				f.Fatalf("the header slot %d/%d wrote: %v", p.Shard, p.Size(), err)
			}
			if len(h.streams) != len(inst.Ads) || int(h.nodes) != inst.G.N() {
				f.Fatalf("the header slot %d/%d wrote reads back %d ads over %d nodes, want %d over %d",
					p.Shard, p.Size(), len(h.streams), h.nodes, len(inst.Ads), inst.G.N())
			}
		}
	}
	if h, _ := readIndexHeader(bytes.NewReader(header(shared, rrset.StreamPartition{})), rrset.StreamPartition{}); !slices.Equal(h.streams, []uint64{0, 0, 0}) {
		f.Fatalf("three ads of one vector wrote stream ids %v, want [0 0 0]", h.streams)
	}
	single, shard := header(shared, rrset.StreamPartition{}), header(shared, rrset.StreamPartition{NumShards: 4, Shard: 2})
	f.Add(header(ownVectors(shared), rrset.StreamPartition{}), uint8(1), uint8(0))
	f.Add(header(ownVectors(shared), rrset.StreamPartition{NumShards: 2, Shard: 1}), uint8(2), uint8(1))
	f.Add(single, uint8(1), uint8(0))
	f.Add(shard, uint8(4), uint8(2))
	f.Add(shard, uint8(4), uint8(1))
	for _, version := range []uint32{5, 7} {
		old := bytes.Clone(shard)
		binary.LittleEndian.PutUint32(old[4:], version)
		f.Add(old, uint8(4), uint8(2))
	}
	// Version 8's next stream id above both bounds: the fourth ad's id stays
	// spent after it is removed.
	mutated, err := BuildIndex(ownVectors(shared), 9, TIRMOptions{MinTheta: 512, MaxTheta: 1024})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := mutated.AddAd(extraNamed(shared, "spent"), TIRMOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := mutated.RemoveAd(3); err != nil {
		f.Fatal(err)
	}
	var spent bytes.Buffer
	if err := mutated.WriteSnapshot(&spent); err != nil {
		f.Fatal(err)
	}
	if h, err := readIndexHeader(bytes.NewReader(spent.Bytes()), rrset.StreamPartition{}); err != nil || h.next != 4 || !slices.Equal(h.streams, []uint64{0, 1, 2}) {
		f.Fatalf("the header after an add and a removal reads back %+v, %v; want next 4 over streams [0 1 2]", h, err)
	}
	f.Add(spent.Bytes()[:4+4+40+8*3+4], uint8(1), uint8(0))
	// A shard count of zero under the CRC of the one-shard header it was
	// written as: without the zero-shard check it reads as the identity,
	// re-marshals as one shard and passes the CRC, and the accepted bytes
	// would not render back.
	zero := bytes.Clone(single)
	binary.LittleEndian.PutUint32(zero[8+20:], 0)
	if _, err := readIndexHeader(bytes.NewReader(zero), rrset.StreamPartition{}); err == nil || !strings.Contains(err.Error(), "zero shards") {
		f.Fatalf("a header with zero shards reads back %v, want the zero-shard error", err)
	}
	f.Add(zero, uint8(1), uint8(0))
	for _, n := range []int{0, 3, 8, 20, 40, len(single) - 5, len(single) - 1} {
		f.Add(single[:n], uint8(1), uint8(0))
	}
	magic := bytes.Clone(single)
	magic[0] ^= 0x20
	f.Add(magic, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shards, slot uint8) {
		part := rrset.StreamPartition{NumShards: int(shards % 9)}
		part.Shard = int(slot) % part.Size()
		h, err := readIndexHeader(bytes.NewReader(data), part)
		if err != nil {
			return
		}
		le := binary.LittleEndian
		payload := h.marshal()
		want := le.AppendUint32(le.AppendUint32(nil, indexMagic), indexVersion)
		want = le.AppendUint32(append(want, payload...), crc32.ChecksumIEEE(payload))
		if !bytes.HasPrefix(data, want) {
			t.Fatalf("accepted %x, which renders back as %x", data, want)
		}
		if int(h.numShards) != part.Size() || !part.IsIdentity() && int(h.shard) != part.Shard {
			t.Fatalf("accepted a header of slot %d/%d for a caller expecting %d/%d",
				h.shard, h.numShards, part.Shard, part.Size())
		}
	})
}
