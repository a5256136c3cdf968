// Tests for the framed transport (frames.go): the fallback to HTTP when a
// daemon cannot or does not upgrade, the framed twins of the HTTP
// envelope's resend, deadline and error-identity tests, what Shard.Close
// does to upgraded connections, per-frame metering, and the frame reader
// under malformed and arbitrary input.

package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// stubOps is a full op table whose ops decode their real request types and
// answer zero replies, or fail() when it returns an error. Nothing touches
// a shard, so arbitrary input costs nothing but its decoding.
func stubOps(fail func() error) [numOps]opHandler {
	return [numOps]opHandler{
		opInfo: {serve: func(_, dst []byte) (int, []byte) {
			return http.StatusOK, appendJSON(dst, ShardInfo{NumShards: 1})
		}},
		opPilot:  handle(func(PilotRequest) (PilotReply, error) { return PilotReply{}, fail() }),
		opEnsure: handle(func(EnsureRequest) (EnsureReply, error) { return EnsureReply{}, fail() }),
		opStart:  handle(func(StartRequest) (StartReply, error) { return StartReply{}, fail() }),
		opCommit: handle(func(CommitRequest) (CommitReply, error) { return CommitReply{}, fail() }),
		opCredit: handle(func(CreditRequest) (CommitReply, error) { return CommitReply{}, fail() }),
		opGrow:   handle(func(GrowRequest) (GrowReply, error) { return GrowReply{}, fail() }),
		opGains:  handle(func(GainsRequest) (GainsReply, error) { return GainsReply{}, fail() }),
		opEnd:    handle(func(endRequest) (struct{}, error) { return struct{}{}, fail() }),
		opAddAd:  handle(func(AddAdRequest) (MutateReply, error) { return MutateReply{}, fail() }),
		opRemoveAd: handle(func(RemoveAdRequest) (MutateReply, error) {
			return MutateReply{}, fail()
		}),
	}
}

// stubFrameServer is the frame loop over ops, metered into a registry of
// its own (returned beside it).
func stubFrameServer(ops [numOps]opHandler) (*frameServer, *Shard) {
	s := &Shard{}
	s.registerMetrics()
	return s.newFrameServer(ops), s
}

// frameStub is a daemon of the test's own over a raw listener: it grants
// every upgrade and hands each request frame to answer, which writes the
// reply, or not, on the connection. It counts the connections it accepts.
type frameStub struct {
	url    string
	opened atomic.Int64
}

func newFrameStub(t *testing.T, answer func(conn net.Conn, o op, body []byte)) *frameStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &frameStub{url: "http://" + ln.Addr().String()}
	var wg sync.WaitGroup
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			st.opened.Add(1)
			mu.Lock()
			conns[conn] = true
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						break
					}
				}
				if _, err := io.WriteString(conn, switchingProtocols); err != nil {
					return
				}
				for {
					o, body, err := readRequestFrame(br)
					if err != nil {
						return
					}
					answer(conn, o, body)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return st
}

// readRequestFrame reads one request frame as a daemon does.
func readRequestFrame(br *bufio.Reader) (op, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, nil, err
	}
	rest := make([]byte, binary.BigEndian.Uint32(head[:])-1)
	if _, err := io.ReadFull(br, rest); err != nil {
		return 0, nil, err
	}
	_, body, ok := parseTraceContext(rest)
	if !ok {
		return 0, nil, errors.New("bad trace context")
	}
	return op(head[4]), body, nil
}

// writeFrameReply writes one reply frame.
func writeFrameReply(w io.Writer, status int, body []byte) error {
	b := binary.BigEndian.AppendUint32(nil, uint32(2+len(body)))
	b = binary.BigEndian.AppendUint16(b, uint16(status))
	_, err := w.Write(append(b, body...))
	return err
}

// TestFrameFallback pins the two daemons a client must keep speaking HTTP
// to — one behind a wrapper with neither Hijack nor Unwrap (the shape of a
// byte-counting middleware), and an older one that answers the upgrade
// with 404 — at K = 1 and 4: the allocation is byte-identical to a single
// node's, and each client asked to upgrade once, not once per RPC, even
// when its first calls race.
func TestFrameFallback(t *testing.T) {
	inst, opts := testInstance(), testOpts()
	const seed = 42
	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Opts: opts}
	want, err := core.AllocateFromIndex(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	daemons := []struct {
		name    string
		refuse  func(w http.ResponseWriter, r *http.Request, h http.Handler)
		envelop uint32
	}{
		{"no hijack", func(w http.ResponseWriter, r *http.Request, h http.Handler) {
			hideHijack(0, h).ServeHTTP(w, r)
		}, envelopeHTTP},
		{"404", func(w http.ResponseWriter, r *http.Request, _ http.Handler) { http.NotFound(w, r) }, envelopeHTTP},
	}
	for _, d := range daemons {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", d.name, k), func(t *testing.T) {
				ctx := context.Background()
				upgrades := make([]atomic.Int64, k)
				_, clients := httpShards(t, seed, k, func(i int, h http.Handler) http.Handler {
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if r.URL.Path == framesPath {
							upgrades[i].Add(1)
							d.refuse(w, r, h)
							return
						}
						hideHijack(i, h).ServeHTTP(w, r)
					})
				}, nil)
				// The first calls race: one of them asks, the rest wait for
				// its answer.
				var wg sync.WaitGroup
				for _, cl := range clients {
					for g := 0; g < 4; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if _, err := cl.Info(ctx); err != nil {
								t.Error(err)
							}
						}()
					}
				}
				wg.Wait()
				coord, err := NewCoordinator(ctx, clients, Config{Roster: inst})
				if err != nil {
					t.Fatal(err)
				}
				if err := coord.Warm(ctx, opts); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, err := coord.Allocate(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, fmt.Sprintf("%s K=%d", d.name, k), inst, req, want, got)
				}
				for i, cl := range clients {
					if n := upgrades[i].Load(); n != 1 {
						t.Errorf("client %d asked to upgrade %d times, want once", i, n)
					}
					if got := cl.(*HTTPClient).envelope.Load(); got != d.envelop {
						t.Errorf("client %d: envelope %d, want %d", i, got, d.envelop)
					}
				}
			})
		}
	}
}

// TestFrameResendRule is TestHTTPResendRule over frames: a request whose
// reply had begun when the connection broke, or that failed on a
// connection dialled for it, is not sent again; one that failed before any
// reply byte on a reused connection is sent again exactly once, on a fresh
// connection that upgrades again.
func TestFrameResendRule(t *testing.T) {
	leakcheck.Check(t)
	const (
		answer = iota // a valid empty CommitReply
		drop          // close the connection without a byte
		cut           // close it a byte into the reply body
	)
	var mode atomic.Int32
	var calls atomic.Int64
	st := newFrameStub(t, func(conn net.Conn, _ op, _ []byte) {
		calls.Add(1)
		switch mode.Load() {
		case answer:
			writeFrameReply(conn, http.StatusOK, (&CommitReply{}).appendWire(nil))
		case cut:
			conn.Write([]byte{0, 0, 0, 66, 0, 200, 1})
			conn.Close()
		default:
			conn.Close()
		}
	})
	ctx := context.Background()
	commit := func(cl *HTTPClient) error {
		_, err := cl.Commit(ctx, CommitRequest{RunID: "run", Node: 1, Seq: 1})
		return err
	}
	for _, tc := range []struct {
		name  string
		warm  bool // one answered call first, so the failing one reuses its connection
		mode  int32
		calls int64
	}{
		{"dropped on a fresh connection", false, drop, 1},
		{"cut mid-reply on a reused connection", true, cut, 1},
		{"dropped on a reused connection", true, drop, 2},
	} {
		cl := NewHTTPClient(st.url)
		if tc.warm {
			mode.Store(answer)
			if err := commit(cl); err != nil {
				t.Fatalf("%s: warming call: %v", tc.name, err)
			}
		}
		mode.Store(tc.mode)
		calls.Store(0)
		if err := commit(cl); err == nil {
			t.Errorf("%s: the call succeeded", tc.name)
		}
		if got := calls.Load(); got != tc.calls {
			t.Errorf("%s: the daemon got the frame %d times, want %d", tc.name, got, tc.calls)
		}
		if n := len(cl.idle); n != 0 {
			t.Errorf("%s: %d broken connections went back to the pool", tc.name, n)
		}
		if got := cl.envelope.Load(); got != envelopeFrames {
			t.Errorf("%s: envelope %d, want frames", tc.name, got)
		}
	}
}

// TestFrameDeadlineAndCancel is TestHTTPDeadlineAndCancel over frames: a
// call to a daemon that never answers its frame ends at its ctx's deadline
// (DeadlineExceeded, retryable) or its cancellation (Canceled, terminal);
// neither connection goes back to the pool, and the next call succeeds on
// one fresh connection.
func TestFrameDeadlineAndCancel(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	st := newFrameStub(t, func(conn net.Conn, o op, _ []byte) {
		if o == opInfo {
			writeFrameReply(conn, http.StatusOK, appendJSON(nil, ShardInfo{NumShards: 1}))
			return
		}
		<-release
	})
	t.Cleanup(func() { close(release) }) // before the stub closes
	cl := NewHTTPClient(st.url)
	ctx := context.Background()
	if _, err := cl.Info(ctx); err != nil {
		t.Fatal(err)
	}
	hang := func(ctx context.Context) error {
		t.Helper()
		begin := time.Now()
		_, err := cl.Commit(ctx, CommitRequest{RunID: "run", Node: 1, Seq: 1})
		if took := time.Since(begin); took > time.Second {
			t.Errorf("a call to a silent daemon took %v under a 50 ms bound", took)
		}
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := hang(dctx); !errors.Is(err, context.DeadlineExceeded) || Classify(err) != ClassRetryable {
		t.Errorf("past its deadline: %v (class %d), want DeadlineExceeded, retryable", err, Classify(err))
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	cctx, cancel = context.WithCancel(cctx)
	defer time.AfterFunc(50*time.Millisecond, cancel).Stop()
	if err := hang(cctx); !errors.Is(err, context.Canceled) || Classify(err) != ClassTerminal {
		t.Errorf("cancelled: %v (class %d), want Canceled, terminal", err, Classify(err))
	}
	if n := len(cl.idle); n != 0 {
		t.Errorf("%d expired connections went back to the pool", n)
	}
	before := st.opened.Load()
	if _, err := cl.Info(ctx); err != nil {
		t.Fatalf("call after the expired ones: %v", err)
	}
	if got := st.opened.Load() - before; got != 1 {
		t.Errorf("the next call opened %d connections, want 1", got)
	}
}

// TestFrameErrorIdentity is TestHTTPErrorIdentity over frames: each
// sentinel, and a plain 400, crosses a binary op and a JSON op with its
// identity and message intact.
func TestFrameErrorIdentity(t *testing.T) {
	leakcheck.Check(t)
	var failing atomic.Pointer[error]
	failing.Store(new(error))
	fs, s := stubFrameServer(stubOps(func() error { return *failing.Load() }))
	ts := httptest.NewServer(http.HandlerFunc(fs.upgrade))
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	cl := NewHTTPClient(ts.URL)
	ctx := context.Background()
	for _, rt := range []struct {
		name string
		call func() error
	}{
		{"binary", func() error { _, err := cl.Commit(ctx, CommitRequest{RunID: "r"}); return err }},
		{"json", func() error { _, err := cl.Ensure(ctx, EnsureRequest{Ad: 1}); return err }},
	} {
		for _, sentinel := range []error{ErrStaleEpoch, ErrUnknownRun, ErrBadSeq, ErrDraining} {
			failing.Store(&sentinel)
			if err := rt.call(); !errors.Is(err, sentinel) {
				t.Errorf("%s op: %v came back as %v", rt.name, sentinel, err)
			}
		}
		plain := errors.New("ad 7 out of range")
		failing.Store(&plain)
		var rpcErr *RPCError
		if err := rt.call(); !errors.As(err, &rpcErr) || rpcErr.Status != http.StatusBadRequest || rpcErr.Msg != "ad 7 out of range" {
			t.Errorf("%s op: plain failure came back as %v", rt.name, err)
		}
		failing.Store(new(error))
		if err := rt.call(); err != nil {
			t.Errorf("%s op: success came back as %v", rt.name, err)
		}
	}
	if got := cl.envelope.Load(); got != envelopeFrames {
		t.Errorf("envelope %d, want frames", got)
	}
	if n := s.frames.open(); n != 1 {
		t.Errorf("%d upgraded connections for sequential calls, want 1", n)
	}
}

// TestFrameMetering pins that a framed op is metered as an HTTP request to
// its route is: the same request and latency families under the route's
// endpoint label, a server span named for the route that adopts the
// caller's span as its remote parent, and the Logf line.
func TestFrameMetering(t *testing.T) {
	leakcheck.Check(t)
	var logged []string
	var mu sync.Mutex
	s := &Shard{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}}
	s.registerMetrics()
	fs := s.newFrameServer(stubOps(func() error { return nil }))
	ts := httptest.NewServer(http.HandlerFunc(fs.upgrade))
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	cl := NewHTTPClient(ts.URL)
	// A sampled caller: the daemon's tracer keeps every trace so flagged.
	tracer := obs.NewTracer(obs.TracerConfig{})
	ctx := obs.WithRemote(context.Background(), obs.SpanContext{Flags: obs.FlagSampled})
	ctx, span := tracer.StartSpan(ctx, "caller")
	if _, err := cl.Commit(ctx, CommitRequest{RunID: "r", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	span.End()
	if n := s.httpMetrics.Requests.With("shard_commit", "200").Value(); n != 1 {
		t.Errorf("adshard_http_requests_total{endpoint=shard_commit,code=200} = %d, want 1", n)
	}
	if n := s.httpMetrics.Latency.With("shard_commit").Count(); n != 1 {
		t.Errorf("adshard_http_request_seconds{endpoint=shard_commit} counts %d, want 1", n)
	}
	td, ok := s.tracer.Get(span.TraceID())
	if !ok {
		t.Fatal("the daemon kept no trace of a sampled caller's frame")
	}
	found := false
	for _, sd := range td.Spans {
		if sd.Name == "http.shard_commit" && sd.Parent == span.ID() {
			found = true
		}
	}
	if !found {
		t.Errorf("no http.shard_commit span under the caller's span in %+v", td.Spans)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "trace="+span.TraceID()) || !strings.Contains(logged[0], "method=FRAME path=/shard/commit status=200") {
		t.Errorf("log lines %q", logged)
	}
}

// TestShardCloseEndsFrames pins Shard.Close: a frame in flight is answered
// before its connection closes, and Close returns only after; the gauge
// reads the connections; and the client's next op, sent again on a fresh
// dial whose upgrade the closed shard refuses, succeeds over HTTP.
func TestShardCloseEndsFrames(t *testing.T) {
	ctx := context.Background()
	shards, clients := httpShards(t, 42, 1, nil, nil)
	s, cl := shards[0], clients[0].(*HTTPClient)
	var block atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s.opHook = func() {
		if block.Load() {
			close(entered)
			<-release
		}
	}
	start, err := cl.Start(ctx, StartRequest{RunID: "run", Epoch: 1, Ads: []int{0}, Thetas: []int{3000}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := start.Cov[0].Nodes
	gauge := func() string {
		var exp bytes.Buffer
		s.reg.Expose(&exp)
		for _, line := range strings.Split(exp.String(), "\n") {
			if strings.HasPrefix(line, "adshard_frame_connections ") {
				return line
			}
		}
		return "no adshard_frame_connections sample"
	}
	if got := gauge(); got != "adshard_frame_connections 1" {
		t.Fatalf("%s, want 1 upgraded connection", got)
	}
	block.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: nodes[0], Seq: 1})
		done <- err
	}()
	<-entered
	block.Store(false)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a frame was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("the commit in flight at Close: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return once the frame was answered")
	}
	if got := gauge(); got != "adshard_frame_connections 0" {
		t.Errorf("%s after Close, want 0", got)
	}
	if _, err := cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: nodes[len(nodes)-1], Seq: 2}); err != nil {
		t.Fatalf("commit after Close: %v", err)
	}
	if got := cl.envelope.Load(); got != envelopeHTTP {
		t.Errorf("envelope after Close %d, want HTTP", got)
	}
	if got := s.commits.Value(); got != 2 {
		t.Errorf("shard applied %d commits, want 2", got)
	}
}

// upgradeRaw dials ts and upgrades the connection by hand.
func upgradeRaw(t *testing.T, ts *httptest.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &HTTPClient{host: "x", frames: framesPath}
	if _, err := conn.Write(c.appendUpgrade(nil)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	return conn, br
}

// TestFrameMalformedCloses pins what a frame the daemon cannot read costs:
// the connection, closed with no reply and without waiting for a body
// declared past the op's limit.
func TestFrameMalformedCloses(t *testing.T) {
	leakcheck.Check(t)
	fs, s := stubFrameServer(stubOps(func() error { return nil }))
	ts := httptest.NewServer(http.HandlerFunc(fs.upgrade))
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	frame := func(n uint32, o byte, rest ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), append([]byte{o}, rest...)...)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no such op", frame(4, byte(numOps), 0, 0, 0)},
		{"shorter than a trace context", frame(2, byte(opCommit), 0)},
		{"run body past its limit", frame(1+maxTraceContext+maxRunBody+1, byte(opCommit), 0, 0, 0)},
		{"info with a body", frame(5, byte(opInfo), 0, 0, 0, 1)},
		{"trace id past its cap", frame(1+2+maxTraceField+1+2, byte(opCommit), append(binary.AppendUvarint(nil, maxTraceField+1), bytes.Repeat([]byte{'a'}, maxTraceField+1+2)...)...)},
		{"unprintable trace id", frame(5, byte(opCommit), 1, '\n', 0, 0)},
	} {
		conn, br := upgradeRaw(t, ts)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(tc.data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("%s: read %d bytes, %v; want the connection closed", tc.name, n, err)
		}
	}
	// A well-formed frame with a body its op cannot decode is answered 400,
	// as over HTTP, and the connection stays.
	conn, br := upgradeRaw(t, ts)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write(frame(6, byte(opCommit), 0, 0, 0, 0xff, 0xff))
	head := make([]byte, 6)
	if _, err := io.ReadFull(br, head); err != nil {
		t.Fatal(err)
	}
	if status := binary.BigEndian.Uint16(head[4:]); status != http.StatusBadRequest {
		t.Errorf("undecodable body: status %d, want 400", status)
	}
}

// frameVerdict is what a reference reading of a byte stream says the frame
// loop must do with it.
type frameVerdict int

const (
	streamClean     frameVerdict = iota // whole frames only: answer each, then wait
	streamTruncated                     // whole frames, then part of one: answer, then wait
	streamMalformed                     // whole frames, then a bad one: answer, then close
)

// referenceFrames reads data as the frame loop must, against the request
// body limits of ops, and returns how many frames it answers and what it
// does after them.
func referenceFrames(data []byte, ops *[numOps]opHandler) (int, frameVerdict) {
	answered := 0
	for len(data) > 0 {
		if len(data) < 5 {
			return answered, streamTruncated
		}
		n, o := int64(binary.BigEndian.Uint32(data)), op(data[4])
		if o >= numOps || n < 4 || n > 1+maxTraceContext+ops[o].limit {
			return answered, streamMalformed
		}
		if int64(len(data)-5) < n-1 {
			return answered, streamTruncated
		}
		_, body, ok := parseTraceContext(data[5 : 4+n])
		if !ok || int64(len(body)) > ops[o].limit {
			return answered, streamMalformed
		}
		answered++
		data = data[4+n:]
	}
	return answered, streamClean
}

// FuzzFrameServe feeds arbitrary bytes to the daemon's frame loop over
// net.Pipe. The loop must not panic, must answer exactly the whole frames
// ahead of the first bad one, and must close the connection on its own at a
// malformed frame — so a declared length past the op's limit cannot make
// it wait for, or read, the body.
func FuzzFrameServe(f *testing.F) {
	ctx := context.Background()
	commit := (&CommitRequest{RunID: "r", Ad: 1, Node: 7, Seq: 1}).appendWire(nil)
	f.Add(appendFrame(ctx, nil, opCommit, commit))
	f.Add(appendFrame(ctx, appendFrame(ctx, nil, opInfo, nil), opEnsure, []byte(`{"ad":1,"want":5}`)))
	f.Add(appendFrame(ctx, nil, opCommit, commit)[:9])
	f.Add(appendFrame(ctx, nil, opStart, []byte{0xff, 0xff, 0xff}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(opCommit), 0, 0, 0})
	f.Add([]byte{0, 0, 0, 4, byte(numOps), 0, 0, 0})
	f.Add([]byte{0, 0, 0, 6, byte(opCommit), 2, 'a'})
	ops := stubOps(func() error { return nil })
	fs, _ := stubFrameServer(ops)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, verdict := referenceFrames(data, &ops)
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if fs.s.frames.add(srv) {
				defer fs.s.frames.remove(srv)
				fs.serve(srv, bufio.NewReader(srv), 0, 0)
			}
		}()
		replies := make(chan int, 1)
		answered := make(chan struct{}, len(data)+1) // one per reply
		go func() {
			br := bufio.NewReader(cli)
			n := 0
			for {
				var head [6]byte
				if _, err := io.ReadFull(br, head[:]); err != nil {
					break
				}
				if _, err := br.Discard(int(binary.BigEndian.Uint32(head[:]) - 2)); err != nil {
					break
				}
				n++
				answered <- struct{}{}
			}
			replies <- n
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			cli.Write(data)
		}()
		// Every wait is bounded: a loop that hangs fails the input.
		wait := func(ch <-chan struct{}, what string) {
			t.Helper()
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s (%v, %d frames answerable)", what, verdict, want)
			}
		}
		if verdict == streamMalformed {
			wait(done, "the loop did not close the connection at a malformed frame")
		} else {
			for i := 0; i < want; i++ {
				wait(answered, fmt.Sprintf("%d frames answered", i))
			}
			wait(wrote, "the loop stopped reading")
		}
		cli.Close()
		wait(done, "the loop did not end with its connection")
		wait(wrote, "the write did not end with the connection")
		if got := <-replies; got != want {
			t.Fatalf("answered %d frames, want %d (%v)", got, want, verdict)
		}
	})
}
