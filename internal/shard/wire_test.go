// Tests for the binary run-op codec (wire.go): exact round trips over the
// edge values of every field type, rejection of each malformed shape the
// decoder promises to reject, and a fuzz target over all twelve messages.

package shard

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// wireMessages lists the twelve messages of the six run ops (CommitReply
// answers both Commit and Credit).
var wireMessages = []struct {
	name string
	new  func() wireMessage
}{
	{"PilotRequest", func() wireMessage { return new(PilotRequest) }},
	{"PilotReply", func() wireMessage { return new(PilotReply) }},
	{"StartRequest", func() wireMessage { return new(StartRequest) }},
	{"StartReply", func() wireMessage { return new(StartReply) }},
	{"CommitRequest", func() wireMessage { return new(CommitRequest) }},
	{"CommitReply", func() wireMessage { return new(CommitReply) }},
	{"CreditRequest", func() wireMessage { return new(CreditRequest) }},
	{"CreditReply", func() wireMessage { return new(CommitReply) }},
	{"GrowRequest", func() wireMessage { return new(GrowRequest) }},
	{"GrowReply", func() wireMessage { return new(GrowReply) }},
	{"GainsRequest", func() wireMessage { return new(GainsRequest) }},
	{"GainsReply", func() wireMessage { return new(GainsReply) }},
}

// normalized returns a deep copy of v with every empty slice made nil: the
// codec does not distinguish the two, and neither does any consumer.
func normalized(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out.Set(normalized(v.Elem()).Addr())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(normalized(v.Field(i)))
		}
	case reflect.Slice:
		if v.Len() > 0 {
			out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				out.Index(i).Set(normalized(v.Index(i)))
			}
		}
	default:
		out.Set(v)
	}
	return out
}

// sameMessage compares two messages with nil and empty slices identified.
func sameMessage(a, b any) bool {
	return reflect.DeepEqual(normalized(reflect.ValueOf(a)).Interface(), normalized(reflect.ValueOf(b)).Interface())
}

// countElems counts the slice elements and string bytes reachable from v —
// what a decoder allocated for.
func countElems(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return countElems(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += countElems(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += countElems(v.Index(i))
		}
		return n
	case reflect.String:
		return v.Len()
	}
	return 0
}

// entropy deals fuzz bytes out as field values; it yields zeros once dry.
type entropy struct{ b []byte }

func (e *entropy) byte() byte {
	if len(e.b) == 0 {
		return 0
	}
	v := e.b[0]
	e.b = e.b[1:]
	return v
}

// int64 favours the edges of every field width: a quarter of the draws are
// a boundary value outright.
func (e *entropy) int64() int64 {
	edges := [...]int64{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 127, 128, -64, -65}
	if c := e.byte(); c%4 == 0 {
		return edges[int(c/4)%len(edges)]
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(e.byte())
	}
	return int64(v)
}

// fill sets every field reachable from v from the entropy: slices get 0–4
// elements (nil and empty both occur), integers are truncated to their
// width, and a SparseCounts keeps its two runs aligned.
func (e *entropy) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			e.fill(v.Field(i))
		}
		if sc, ok := v.Addr().Interface().(*SparseCounts); ok {
			n := min(len(sc.Nodes), len(sc.Counts))
			sc.Nodes, sc.Counts = sc.Nodes[:n], sc.Counts[:n]
		}
	case reflect.Slice:
		n := int(e.byte() % 6)
		if n == 5 {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return
		}
		if n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			e.fill(v.Index(i))
		}
	case reflect.String:
		n := int(e.byte() % 8)
		s := make([]byte, n)
		for i := range s {
			s[i] = e.byte()
		}
		v.SetString(string(s))
	case reflect.Bool:
		v.SetBool(e.byte()&1 == 1)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(e.int64()) // SetInt truncates to the field's width
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(e.int64()))
	default:
		panic("wire_test: unhandled field kind " + v.Kind().String())
	}
}

// mustRoundTrip encodes x, decodes it into a fresh message and requires the
// two equal.
func mustRoundTrip(t *testing.T, name string, x, fresh wireMessage) {
	t.Helper()
	enc := x.appendWire(nil)
	if err := fresh.decodeWire(enc); err != nil {
		t.Fatalf("%s: decode(append(x)) failed: %v\n x = %+v", name, err, x)
	}
	if !sameMessage(x, fresh) {
		t.Fatalf("%s: round trip changed the message\n sent %+v\n  got %+v", name, x, fresh)
	}
	// A run decodes every reply of an op into the same message.
	if err := fresh.decodeWire(enc); err != nil || !sameMessage(x, fresh) {
		t.Fatalf("%s: decoding again into the decoded message gave %+v (err %v), sent %+v", name, fresh, err, x)
	}
	// Appending after a prefix must not disturb it: handlers reuse buffers.
	if with := x.appendWire([]byte{0xAA}); with[0] != 0xAA || string(with[1:]) != string(enc) {
		t.Fatalf("%s: appendWire does not append", name)
	}
}

func TestWireRoundTripEdges(t *testing.T) {
	wide := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1 << 40}
	counts := []int32{math.MinInt32, math.MaxInt32, 0, -1}
	nodes := []int32{0, math.MaxInt32, 599, math.MinInt32}
	cases := []wireMessage{
		&PilotRequest{},
		&PilotRequest{Epoch: math.MaxUint64, Ads: []int{0, 9, math.MaxInt, math.MinInt}, Want: math.MaxInt, SkipWidths: true},
		&PilotReply{},
		&PilotReply{Widths: [][]int64{wide, nil, {}, {7}}, Have: []int{0, 2000}, Fresh: math.MinInt64},
		&StartRequest{},
		&StartRequest{RunID: "run-17f3a-1", Epoch: 3, Ads: []int{0, 1}, Thetas: []int{2000, 20000}},
		&StartReply{},
		&StartReply{Cov: []SparseCounts{{Nodes: nodes, Counts: counts}, {}, {Nodes: []int32{}, Counts: []int32{}}},
			LocalSets: []int{500, 0, 0}, Kernels: []uint8{0, 1, 255}, Fresh: math.MaxInt64},
		&CommitRequest{},
		&CommitRequest{RunID: "r", Ad: 9, Node: math.MaxInt32, Seq: math.MaxInt64},
		&CommitReply{},
		&CommitReply{Covered: math.MaxInt, Delta: SparseCounts{Nodes: nodes, Counts: counts}},
		&CreditRequest{RunID: "r", Ad: -1, Node: math.MinInt32, FromGlobal: math.MaxInt, Seq: 1},
		&GrowRequest{RunID: "", Ad: 3, FromGlobal: 2000, ToGlobal: 4000, Seq: math.MinInt64},
		&GrowReply{Added: SparseCounts{Nodes: []int32{5}, Counts: []int32{2}}, LocalSets: 500, Fresh: 500},
		&GainsRequest{RunID: "r", Ad: 0, Nodes: nodes},
		&GainsReply{},
		&GainsReply{Cov: counts},
	}
	for _, x := range cases {
		fresh := reflect.New(reflect.TypeOf(x).Elem()).Interface().(wireMessage)
		mustRoundTrip(t, reflect.TypeOf(x).Elem().Name(), x, fresh)
	}
}

// TestWireDecodeRejects pins each malformed shape the decoder refuses.
func TestWireDecodeRejects(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	good := (&CommitReply{Covered: 1, Delta: SparseCounts{Nodes: []int32{4}, Counts: []int32{1}}}).appendWire(nil)
	cases := []struct {
		name string
		msg  wireMessage
		in   []byte
	}{
		{"empty body", new(CommitRequest), nil},
		{"truncated", new(CommitReply), good[:len(good)-1]},
		{"trailing byte", new(CommitReply), append(append([]byte(nil), good...), 0)},
		// A 2³²-element run in a 6-byte body: refused before any allocation.
		{"length past the body", new(GainsReply), uv(1 << 32)},
		{"huge length", new(GainsReply), uv(math.MaxUint64)},
		{"outer length past the body", new(StartReply), uv(1<<20, 0, 0)},
		{"run id past the body", new(CommitRequest), uv(200, 1, 2, 3)},
		{"nodes and counts disagree", new(CommitReply), uv(0, 2, 8, 10, 1, 2, 0)},
		{"zero nodes, some counts", new(CommitReply), uv(0, 0, 1, 2)},
		{"count past int32", new(GainsReply), uv(1, uint64(math.MaxInt32+1)<<1)},
		{"node past int32", new(CommitRequest), uv(0, 0, uint64(math.MaxInt32+1)<<1, 0)},
		{"bool is 2", new(PilotRequest), uv(1, 0, 0, 2)},
		{"varint overflows 64 bits", new(GainsReply), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"JSON", new(CommitRequest), []byte(`{"runId":"r","ad":0,"node":5}`)},
	}
	for _, tc := range cases {
		err := tc.msg.decodeWire(tc.in)
		if !errors.Is(err, errWire) {
			t.Errorf("%s: decode = %v, want a wire error", tc.name, err)
		}
	}
}

// FuzzWireDecode holds the codec to its two promises for each of the
// twelve messages. On arbitrary bytes decode never panics and never
// allocates for more elements than the body has bytes, and whatever it
// accepts survives a re-encode. On values generated from the same bytes —
// empty and nil slices, int32 and int64 extremes — decode(append(x)) is x.
func FuzzWireDecode(f *testing.F) {
	for i, m := range wireMessages {
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), []byte{0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(i), []byte{3, 4, 12, 16, 20, 24, 3, 1, 2, 3, 28, 32, 36, 40, 5, 1, 0xff, 0xfe, 7, 7, 7, 7, 7, 7})
		var e entropy
		x := m.new()
		e.b = []byte{2, 4, 8, 3, 12, 16, 20, 2, 24, 28, 1, 32, 4, 36, 40, 0, 4, 1, 2, 9, 9, 9, 9, 9, 9, 9, 9}
		e.fill(reflect.ValueOf(x).Elem())
		f.Add(uint8(i), x.appendWire(nil))
	}
	f.Add(uint8(5), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint8(3), []byte{0x80, 0x80, 0x40, 0, 0})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		m := wireMessages[int(which)%len(wireMessages)]

		got := m.new()
		err := got.decodeWire(data)
		// Into a message already holding other values — a reply reused
		// across a run's calls — the same bytes decode the same.
		used := m.new()
		(&entropy{b: data}).fill(reflect.ValueOf(used).Elem())
		if uerr := used.decodeWire(data); (uerr == nil) != (err == nil) || err == nil && !sameMessage(used, got) {
			t.Fatalf("%s: decode into a used message gave %+v (err %v), into a fresh one %+v (err %v)", m.name, used, uerr, got, err)
		}
		if err == nil {
			if n := countElems(reflect.ValueOf(got)); n > len(data) {
				t.Fatalf("%s: decoded %d elements from %d bytes", m.name, n, len(data))
			}
			mustRoundTrip(t, m.name, got, m.new())
		} else if !errors.Is(err, errWire) {
			t.Fatalf("%s: decode error %v is not a wire error", m.name, err)
		}

		x := m.new()
		(&entropy{b: data}).fill(reflect.ValueOf(x).Elem())
		mustRoundTrip(t, m.name, x, m.new())
	})
}
