// The binary wire form of the six run ops — Pilot, Start, Commit, Credit,
// Grow, Gains: exactly the calls the greedy loop issues per run
// (backend.go), whose payloads are integers only (protocol.go). A canonical
// allocation is ~900 of these RPCs, so their spelling is the transport's
// cost; the lifecycle routes an operator or a mutation touches once (info,
// ensure, end, ads, remove, drain) carry strings and floats and
// stay JSON. Each route speaks exactly one format — there is no
// negotiation: both ends ship together.
//
// Grammar (every message is its fields in declaration order, no tags):
//
//	unsigned field (uint64, uint8, bool, a length)  = uvarint (LEB128)
//	signed field   (int, int32, int64)              = zigzag varint
//	string, []uint8                                 = length, then the bytes
//	[]int, []int32, []int64                         = length, then the elements
//	SparseCounts = Nodes run, Counts run (equal lengths); [][]T, []SparseCounts = length, then the elements
//
// Decoders treat their input as untrusted: every length is checked against
// the bytes that remain before anything is allocated (an element is at
// least one byte), values must fit their field, and trailing bytes are an
// error. The Start, Commit/Credit and Grow replies decode into the slices
// the message already holds when they are large enough: a coordinator run
// passes the same reply to every call of its op, so steady decoding
// allocates nothing. A zero-length run decodes to an empty slice, nil in a
// fresh message.

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// wireMessage is both halves of the codec, as every run-op message
// implements them (on its pointer).
type wireMessage interface {
	appendWire([]byte) []byte
	decodeWire([]byte) error
}

// errWire is the root of every decode failure.
var errWire = errors.New("shard wire")

// wireInt is the set of signed field types a run carries.
type wireInt interface{ ~int | ~int32 | ~int64 }

func appendBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts[T wireInt](b []byte, s []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendSparse(b []byte, sc SparseCounts) []byte {
	return appendInts(appendInts(b, sc.Nodes), sc.Counts)
}

// wireReader consumes one message. The first failure sticks: later reads
// return zero values, so a decoder reads all its fields and checks once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
	}
}

func (r *wireReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// length reads an element count and bounds it by the bytes that remain,
// each element taking at least min of them.
func (r *wireReader) length(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("length %d exceeds the %d bytes that remain", n, len(r.b))
		r.b = nil
		return 0
	}
	return int(n)
}

func (r *wireReader) bytes() []byte {
	n := r.length(1)
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *wireReader) bool() bool {
	v := r.uvarint()
	if v > 1 {
		r.fail("bool is %d", v)
	}
	return v == 1
}

// uint8s reads a byte run into dst's backing array.
func (r *wireReader) uint8s(dst []uint8) []uint8 { return append(dst[:0], r.bytes()...) }

// readInt reads one signed field, rejecting values outside T.
func readInt[T wireInt](r *wireReader) T {
	v := r.varint()
	if int64(T(v)) != v {
		r.fail("value %d does not fit its field", v)
	}
	return T(v)
}

// fillInts reads len(dst) elements of a run whose length is already read.
func fillInts[T wireInt](r *wireReader, dst []T) {
	for i := range dst {
		dst[i] = readInt[T](r)
	}
}

// resized returns s at length n: s itself when its backing array holds n
// elements, a new slice otherwise.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readInts reads a run into dst's backing array (nil: a new one).
func readInts[T wireInt](r *wireReader, dst []T) []T {
	s := resized(dst, r.length(1))
	fillInts(r, s)
	return s
}

// sparse reads Nodes and Counts into dst's backing arrays, or into one new
// allocation when either is too small.
func (r *wireReader) sparse(dst SparseCounts) SparseCounts {
	n := r.length(1)
	if cap(dst.Nodes) < n || cap(dst.Counts) < n {
		buf := make([]int32, 2*n)
		dst = SparseCounts{Nodes: buf[:0:n], Counts: buf[n:n]}
	}
	sc := SparseCounts{Nodes: dst.Nodes[:n]}
	fillInts(r, sc.Nodes)
	if m := r.length(1); m != n {
		r.fail("%d nodes for %d counts", n, m)
		return SparseCounts{}
	}
	sc.Counts = dst.Counts[:n]
	fillInts(r, sc.Counts)
	return sc
}

// done is every decoder's last call: the sticky error, or trailing bytes.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (m *PilotRequest) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Epoch)
	b = appendInts(b, m.Ads)
	b = binary.AppendVarint(b, int64(m.Want))
	return appendBool(b, m.SkipWidths)
}

func (m *PilotRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = PilotRequest{Epoch: r.uvarint(), Ads: readInts[int](&r, nil), Want: readInt[int](&r), SkipWidths: r.bool()}
	return r.done()
}

func (m *PilotReply) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Widths)))
	for _, w := range m.Widths {
		b = appendInts(b, w)
	}
	b = appendInts(b, m.Have)
	return binary.AppendVarint(b, m.Fresh)
}

func (m *PilotReply) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = PilotReply{}
	if n := r.length(1); n > 0 {
		m.Widths = make([][]int64, n)
		for i := range m.Widths {
			m.Widths[i] = readInts[int64](&r, nil)
		}
	}
	m.Have, m.Fresh = readInts[int](&r, nil), r.varint()
	return r.done()
}

func (m *StartRequest) appendWire(b []byte) []byte {
	b = appendBytes(b, m.RunID)
	b = binary.AppendUvarint(b, m.Epoch)
	b = appendInts(b, m.Ads)
	return appendInts(b, m.Thetas)
}

func (m *StartRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = StartRequest{RunID: string(r.bytes()), Epoch: r.uvarint(), Ads: readInts[int](&r, nil), Thetas: readInts[int](&r, nil)}
	return r.done()
}

func (m *StartReply) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Cov)))
	for _, sc := range m.Cov {
		b = appendSparse(b, sc)
	}
	b = appendInts(b, m.LocalSets)
	b = appendBytes(b, m.Kernels)
	return binary.AppendVarint(b, m.Fresh)
}

func (m *StartReply) decodeWire(b []byte) error {
	r := wireReader{b: b}
	m.Cov = resized(m.Cov, r.length(2)) // a SparseCounts is two lengths at the least
	for i := range m.Cov {
		m.Cov[i] = r.sparse(m.Cov[i])
	}
	m.LocalSets, m.Kernels, m.Fresh = readInts(&r, m.LocalSets), r.uint8s(m.Kernels), r.varint()
	return r.done()
}

func (m *CommitRequest) appendWire(b []byte) []byte {
	b = appendBytes(b, m.RunID)
	b = binary.AppendVarint(b, int64(m.Ad))
	b = binary.AppendVarint(b, int64(m.Node))
	return binary.AppendVarint(b, m.Seq)
}

func (m *CommitRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = CommitRequest{RunID: string(r.bytes()), Ad: readInt[int](&r), Node: readInt[int32](&r), Seq: r.varint()}
	return r.done()
}

func (m *CommitReply) appendWire(b []byte) []byte {
	return appendSparse(binary.AppendVarint(b, int64(m.Covered)), m.Delta)
}

func (m *CommitReply) decodeWire(b []byte) error {
	r := wireReader{b: b}
	m.Covered = readInt[int](&r)
	m.Delta = r.sparse(m.Delta)
	return r.done()
}

func (m *CreditRequest) appendWire(b []byte) []byte {
	b = appendBytes(b, m.RunID)
	b = binary.AppendVarint(b, int64(m.Ad))
	b = binary.AppendVarint(b, int64(m.Node))
	b = binary.AppendVarint(b, int64(m.FromGlobal))
	return binary.AppendVarint(b, m.Seq)
}

func (m *CreditRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = CreditRequest{RunID: string(r.bytes()), Ad: readInt[int](&r), Node: readInt[int32](&r), FromGlobal: readInt[int](&r), Seq: r.varint()}
	return r.done()
}

func (m *GrowRequest) appendWire(b []byte) []byte {
	b = appendBytes(b, m.RunID)
	b = binary.AppendVarint(b, int64(m.Ad))
	b = binary.AppendVarint(b, int64(m.FromGlobal))
	b = binary.AppendVarint(b, int64(m.ToGlobal))
	return binary.AppendVarint(b, m.Seq)
}

func (m *GrowRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = GrowRequest{RunID: string(r.bytes()), Ad: readInt[int](&r), FromGlobal: readInt[int](&r), ToGlobal: readInt[int](&r), Seq: r.varint()}
	return r.done()
}

func (m *GrowReply) appendWire(b []byte) []byte {
	b = appendSparse(b, m.Added)
	b = binary.AppendVarint(b, int64(m.LocalSets))
	return binary.AppendVarint(b, m.Fresh)
}

func (m *GrowReply) decodeWire(b []byte) error {
	r := wireReader{b: b}
	m.Added = r.sparse(m.Added)
	m.LocalSets, m.Fresh = readInt[int](&r), r.varint()
	return r.done()
}

func (m *GainsRequest) appendWire(b []byte) []byte {
	b = appendBytes(b, m.RunID)
	b = binary.AppendVarint(b, int64(m.Ad))
	return appendInts(b, m.Nodes)
}

func (m *GainsRequest) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = GainsRequest{RunID: string(r.bytes()), Ad: readInt[int](&r), Nodes: readInts[int32](&r, nil)}
	return r.done()
}

func (m *GainsReply) appendWire(b []byte) []byte { return appendInts(b, m.Cov) }

func (m *GainsReply) decodeWire(b []byte) error {
	r := wireReader{b: b}
	*m = GainsReply{Cov: readInts[int32](&r, nil)}
	return r.done()
}
