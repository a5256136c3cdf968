package rrset

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestEncodeSetFamilyRoundTrip: v2 sections round-trip and concatenate on
// one stream, including empty sets and an empty family.
func TestEncodeSetFamilyRoundTrip(t *testing.T) {
	for _, fam := range []*SetFamily{
		FamilyFromSets([][]int32{{1, 2}, nil, {0, 3, 9}, {5}}),
		NewSetFamily(),
	} {
		var buf bytes.Buffer
		if err := EncodeSetFamily(&buf, fam.View()); err != nil {
			t.Fatal(err)
		}
		if err := EncodeSetFamily(&buf, fam.View()); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		for k := 0; k < 2; k++ {
			got, err := DecodeSetFamily(r, 10)
			if err != nil {
				t.Fatalf("section %d: %v", k, err)
			}
			if !reflect.DeepEqual(canonSets(fam.Sets()), canonSets(got.Sets())) {
				t.Fatalf("section %d did not round-trip", k)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d trailing bytes", r.Len())
		}
	}
}

// TestEncodeZeroValueView: the zero-value FamilyView encodes as an empty
// family instead of panicking (the rest of the FamilyView API treats the
// zero value as empty).
func TestEncodeZeroValueView(t *testing.T) {
	var v FamilyView
	var buf bytes.Buffer
	if err := EncodeSetFamily(&buf, v); err != nil {
		t.Fatal(err)
	}
	fam, err := DecodeSetFamily(bytes.NewReader(buf.Bytes()), 10)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 || fam.NumMembers() != 0 {
		t.Fatalf("decoded %d sets, %d members", fam.Len(), fam.NumMembers())
	}
}

// TestDecodeRejectsRetiredRRS1: a section in the retired record-per-set
// layout fails on its magic — cleanly, before any of it is interpreted —
// so the owner of an old snapshot rebuilds instead of loading garbage.
func TestDecodeRejectsRetiredRRS1(t *testing.T) {
	// "RRS1", one set holding node 3 — a well-formed section of the layout
	// this package used to read.
	rrs1 := []byte{0x31, 0x53, 0x52, 0x52, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0}
	_, err := DecodeSetFamily(bytes.NewReader(rrs1), 5)
	if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("RRS1 section: %v, want bad snapshot magic", err)
	}
}

// TestDecodeRejectsPast32BitArena: a header claiming 2^32 members — which a
// universe and set count large enough would otherwise admit — fails on the
// 32-bit offset limit before a length is read, while one claiming 2^32−1
// passes the limit and fails only on its missing lengths.
func TestDecodeRejectsPast32BitArena(t *testing.T) {
	section := func(total uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, setsMagicV2)
		b = binary.LittleEndian.AppendUint32(b, 1<<20)
		return binary.LittleEndian.AppendUint64(b, total)
	}
	const n = 1 << 13 // 2^20 sets × 2^13 nodes admit 2^33 members
	_, err := DecodeSetFamily(bytes.NewReader(section(1<<32)), n)
	if err == nil || !strings.Contains(err.Error(), "32-bit offset limit") {
		t.Fatalf("2^32 members: %v, want the 32-bit offset limit", err)
	}
	_, err = DecodeSetFamily(bytes.NewReader(section(1<<32-1)), n)
	if err == nil || !strings.Contains(err.Error(), "set lengths at 0") {
		t.Fatalf("2^32−1 members: %v, want a failure on the missing lengths", err)
	}
}

func TestDecodeSetFamilyV2RejectsCorruption(t *testing.T) {
	fam := FamilyFromSets([][]int32{{1, 2}, {3}, {0, 4, 2}})
	var buf bytes.Buffer
	if err := EncodeSetFamily(&buf, fam.View()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flip := func(i int) []byte {
		bad := append([]byte{}, raw...)
		bad[i] ^= 0x01
		return bad
	}
	// A member bit-flip that stays in range is exactly what the CRC footer
	// exists to catch: member arena starts after magic+meta+lengths.
	memberOff := 4 + 12 + 4*3
	if _, err := DecodeSetFamily(bytes.NewReader(flip(memberOff)), 10); err == nil {
		t.Error("in-range member corruption accepted (CRC must catch it)")
	}
	// Footer corruption.
	if _, err := DecodeSetFamily(bytes.NewReader(flip(len(raw)-1)), 10); err == nil {
		t.Error("corrupt CRC footer accepted")
	}
	// Truncations at every boundary.
	for _, cut := range []int{2, 4, 10, 4 + 12 + 2, len(raw) - 2} {
		if _, err := DecodeSetFamily(bytes.NewReader(raw[:cut]), 10); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Universe too small for a member / for a length.
	if _, err := DecodeSetFamily(bytes.NewReader(raw), 4); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := DecodeSetFamily(bytes.NewReader(raw), 2); err == nil {
		t.Error("oversized set accepted")
	}
	// An absurd count/total must fail fast, not preallocate.
	huge := append([]byte{}, raw...)
	for i := 4; i < 16; i++ {
		huge[i] = 0xff
	}
	if _, err := DecodeSetFamily(bytes.NewReader(huge), 10); err == nil {
		t.Error("absurd header accepted")
	}
}

// FuzzDecodeSets hammers the one decode entry point with arbitrary bytes;
// it must never panic or over-allocate, and anything it accepts must
// re-encode to a decodable section. Seeds cover a clean section, a retired
// RRS1 section, truncations, and a CRC flip.
func FuzzDecodeSets(f *testing.F) {
	sets := [][]int32{{1, 2}, {3}, nil, {0, 4, 5}}
	var v2 bytes.Buffer
	if err := EncodeSetFamily(&v2, FamilyFromSets(sets).View()); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0x31, 0x53, 0x52, 0x52, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:5])
	f.Add(v2.Bytes()[:9])
	crcFlip := append([]byte{}, v2.Bytes()...)
	crcFlip[len(crcFlip)-2] ^= 0xff
	f.Add(crcFlip)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		fam, err := DecodeSetFamily(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		for i := 0; i < fam.Len(); i++ {
			set := fam.Set(i)
			if len(set) > n {
				t.Fatalf("accepted set %d with %d members (universe %d)", i, len(set), n)
			}
			for _, u := range set {
				if u < 0 || int(u) >= n {
					t.Fatalf("accepted out-of-range member %d", u)
				}
			}
		}
		var out bytes.Buffer
		if err := EncodeSetFamily(&out, fam.View()); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeSetFamily(bytes.NewReader(out.Bytes()), n)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(canonSets(fam.Sets()), canonSets(back.Sets())) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}

// codecBenchFamily builds a synthetic ≥100k-set family shaped like a real
// RR sample (small, skewed sets).
func codecBenchFamily(numSets, n int) *SetFamily {
	r := xrand.New(99)
	fam := NewSetFamily()
	fam.Reserve(numSets, int64(numSets)*6)
	var scratch []int32
	for i := 0; i < numSets; i++ {
		sz := 1 + r.IntN(10)
		scratch = scratch[:0]
		for j := 0; j < sz; j++ {
			scratch = append(scratch, int32(r.IntN(n)))
		}
		fam.Append(scratch)
	}
	return fam
}

// BenchmarkSnapshotCodec measures the bulk codec on a 128k-set family
// (encode+decode round trip per op).
func BenchmarkSnapshotCodec(b *testing.B) {
	const numSets, n = 128 * 1024, 30000
	fam := codecBenchFamily(numSets, n)
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := EncodeSetFamily(&buf, fam.View()); err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeSetFamily(bytes.NewReader(buf.Bytes()), n); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}

// BenchmarkBuildInverted measures the one-pass CSR inverted-index build
// that replaced per-node append lists.
func BenchmarkBuildInverted(b *testing.B) {
	const numSets, n = 64 * 1024, 30000
	fam := codecBenchFamily(numSets, n)
	v := fam.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildInverted(n, v, 0)
	}
}
