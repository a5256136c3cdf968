// Binary snapshot encoding for RR-set families. A long-lived allocation
// service (internal/serve) persists each dataset's per-ad samples so that a
// restarted process starts warm: a load skips the reverse-BFS sampling that
// dominates TIRM's cost, but it is not pure I/O. A snapshot stores the
// member arenas only; everything derived from them is rebuilt on load, and
// that rebuild is most of the load. At DBLP scale (317K nodes, 5 × 500K
// sets, 52 MB file; CPU profile of one core.ReadIndexSnapshot on 2 cores)
// BuildInverted, which builds the index straight from the arena, was
// ~90 % — its scatter 78 %, its counting pass 12 % — and decoding the
// sections ~6 %, when that index was the cover join; over LazyMinNodes
// nodes it is now id rows, one word per membership. Persisting the index
// would grow the file, so the load derives it: one ad per worker of the
// bounded fan-out (core/index.go), each index over one set range per
// worker, so the last ad to decode does not build alone. The format is little-endian and
// versioned; core.Index composes per-ad sections written with
// EncodeSetFamily into one index file.
//
// Format-version policy: current version only. A section self-describes
// via its magic; DecodeSetFamily reads the one layout EncodeSetFamily
// writes and rejects every other magic — including the retired
// record-per-set "RRS1" — with "bad snapshot magic". A snapshot is a cache
// of a deterministic sample, never the only copy: the owner of a rejected
// file (serve's buildIndex, an adshard start-up) rebuilds from the instance
// and seed and overwrites it.
//
//   - "RRS2": the family's flat CSR arrays (set lengths, then the member
//     arena) written in bulk, guarded by a CRC32 (IEEE) footer over the
//     section payload. Encoding and decoding are a handful of large
//     reads/writes, and the decoded family is two allocations.
//
// Change the magic (never reinterpret an existing one) when the layout
// changes, and replace the codec: the old decoder goes with the old magic.
package rrset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// setsMagicV2 guards a flat CSR + CRC32 family section ("RRS2").
const setsMagicV2 = uint32(0x52525332)

// codecChunk bounds the scratch buffer of the bulk codec (in uint32
// values): sections stream through fixed-size chunks, so a corrupt header
// can never force a huge upfront allocation.
const codecChunk = 1 << 14

// EncodeSetFamily writes one RR-set family section in the "RRS2"
// layout: magic, set count, total member count, the per-set lengths, the
// flat member arena, and a CRC32 footer over everything after the magic.
// All arrays are emitted in large chunks straight from the CSR arena — no
// per-set framing. Sections are exactly delimited, so several families can
// be concatenated on one stream and decoded back.
func EncodeSetFamily(w io.Writer, v FamilyView) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], setsMagicV2)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	k := v.Len()
	var meta [12]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(k))
	binary.LittleEndian.PutUint64(meta[4:], uint64(v.NumMembers()))
	if _, err := mw.Write(meta[:]); err != nil {
		return err
	}

	buf := make([]byte, 4*codecChunk)
	// Lengths, chunked.
	for i := 0; i < k; {
		n := 0
		for ; i < k && n < codecChunk; i, n = i+1, n+1 {
			binary.LittleEndian.PutUint32(buf[4*n:], uint32(v.offsets[i+1]-v.offsets[i]))
		}
		if _, err := mw.Write(buf[:4*n]); err != nil {
			return err
		}
	}
	// Member arena, chunked. (k == 0 also covers the zero-value view, whose
	// offsets slice is nil and must not be indexed.)
	var arena []int32
	if k > 0 {
		arena = v.members[v.offsets[0]:v.offsets[k]]
	}
	for len(arena) > 0 {
		n := len(arena)
		if n > codecChunk {
			n = codecChunk
		}
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint32(buf[4*j:], uint32(arena[j]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		crc.Write(buf[:4*n])
		arena = arena[n:]
	}

	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	_, err := w.Write(foot[:])
	return err
}

// DecodeSetFamily reads one family section written by EncodeSetFamily,
// consuming exactly its bytes of the stream (wrap the source in a
// bufio.Reader for performance — the decoder never reads ahead, so
// families decode back to back from one reader). n is the node-universe
// size; every member must lie in [0, n), no set may exceed n members and
// the family may not pass maxArena members (its offsets are 32-bit), which
// bounds the damage a truncated or corrupt snapshot can do. Sections
// fail on CRC32 mismatch, so a bit-flipped member is caught even when it
// stays in range. Every read streams through bounded chunks and is
// validated as it arrives, so corrupt counts fail at the truncated stream
// instead of allocating their claimed size.
func DecodeSetFamily(r io.Reader, n int) (*SetFamily, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("rrset: snapshot header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[:]); magic != setsMagicV2 {
		return nil, fmt.Errorf("rrset: bad snapshot magic %#x", magic)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var meta [12]byte
	if _, err := io.ReadFull(tr, meta[:]); err != nil {
		return nil, fmt.Errorf("rrset: snapshot header: %w", err)
	}
	count := int(binary.LittleEndian.Uint32(meta[:4]))
	total := binary.LittleEndian.Uint64(meta[4:])
	if total > maxArena {
		return nil, fmt.Errorf("rrset: snapshot claims %d members, past the 32-bit offset limit", total)
	}
	if total > uint64(count)*uint64(n) {
		return nil, fmt.Errorf("rrset: snapshot claims %d members for %d sets over universe %d", total, count, n)
	}

	preSets := count
	if preSets > 1<<20 {
		preSets = 1 << 20
	}
	preMembers := int64(total)
	if preMembers > 1<<22 {
		preMembers = 1 << 22
	}
	fam := &SetFamily{
		offsets: make([]uint32, 1, preSets+1),
		members: make([]int32, 0, preMembers),
	}

	buf := make([]byte, 4*codecChunk)
	var sum uint64
	for i := 0; i < count; {
		chunk := count - i
		if chunk > codecChunk {
			chunk = codecChunk
		}
		if _, err := io.ReadFull(tr, buf[:4*chunk]); err != nil {
			return nil, fmt.Errorf("rrset: set lengths at %d: %w", i, err)
		}
		for j := 0; j < chunk; j++ {
			sz := binary.LittleEndian.Uint32(buf[4*j:])
			if int(sz) > n {
				return nil, fmt.Errorf("rrset: set %d has %d members, universe is %d", i+j, sz, n)
			}
			sum += uint64(sz)
			fam.offsets = append(fam.offsets, uint32(sum))
		}
		i += chunk
	}
	if sum != total {
		return nil, fmt.Errorf("rrset: set lengths sum to %d, header claims %d", sum, total)
	}

	for read := uint64(0); read < total; {
		chunk := total - read
		if chunk > codecChunk {
			chunk = codecChunk
		}
		if _, err := io.ReadFull(tr, buf[:4*chunk]); err != nil {
			return nil, fmt.Errorf("rrset: members at %d: %w", read, err)
		}
		for j := uint64(0); j < chunk; j++ {
			v := binary.LittleEndian.Uint32(buf[4*j:])
			if int(v) >= n {
				return nil, fmt.Errorf("rrset: member %d out of range", v)
			}
			fam.members = append(fam.members, int32(v))
		}
		read += chunk
	}

	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return nil, fmt.Errorf("rrset: snapshot footer: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(foot[:]); got != want {
		return nil, fmt.Errorf("rrset: snapshot CRC mismatch: computed %#x, stored %#x", got, want)
	}
	return fam, nil
}
