// Tests for the HTTP transport itself (http.go): reply-for-reply
// equivalence with the in-process transport over one scripted run, error
// identity across both body formats, replay determinism on the wire,
// connection reuse, the resend rule, deadlines and cancellation, and TLS.
// Each runs over the HTTP envelope; its framed twin is here when it shares
// the body, in frames_test.go when it needs a daemon of its own.

package shard

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

// httpShards builds k shards of testInstance, each behind its own httptest
// server, and returns them with one HTTPClient per shard. wrap, when
// non-nil, decorates shard i's handler (hideHijack keeps its clients on
// HTTP; unwrapped, they upgrade to frames); connState, when non-nil,
// observes shard i's connections. It runs under leakcheck: the caller fails
// if the servers or clients leave a goroutine behind once the servers and
// shards close.
func httpShards(tb testing.TB, seed uint64, k int, wrap func(i int, h http.Handler) http.Handler, connState func(i int, st http.ConnState)) ([]*Shard, []Client) {
	tb.Helper()
	leakcheck.Check(tb)
	p, err := NewPartitioner(k)
	if err != nil {
		tb.Fatal(err)
	}
	shards := make([]*Shard, k)
	clients := make([]Client, k)
	for i := range shards {
		s, err := NewShard(testInstance(), 0, seed, p.Range(i))
		if err != nil {
			tb.Fatal(err)
		}
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewUnstartedServer(h)
		if connState != nil {
			ts.Config.ConnState = func(_ net.Conn, st http.ConnState) { connState(i, st) }
		}
		ts.Start()
		tb.Cleanup(ts.Close)
		tb.Cleanup(s.Close)
		shards[i], clients[i] = s, NewHTTPClient(ts.URL)
	}
	return shards, clients
}

// hideHijack serves h behind a ResponseWriter with neither Hijack nor
// Unwrap — the shape of a byte-counting wrapper — so the daemon cannot
// upgrade a connection and its clients speak HTTP.
func hideHijack(_ int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
	})
}

// TestHTTPTransportEquivalence replays one scripted run that hits every op
// against twin shards — one behind LocalClient, one behind HTTPClient over
// HTTP — and requires every reply equal field for field.
func TestHTTPTransportEquivalence(t *testing.T) { testTransportEquivalence(t, hideHijack) }

// TestFrameTransportEquivalence is TestHTTPTransportEquivalence over an
// upgraded connection: every op, and every error, as a frame.
func TestFrameTransportEquivalence(t *testing.T) { testTransportEquivalence(t, nil) }

// testTransportEquivalence runs the scripted run against a daemon behind
// wrap (httpShards).
func testTransportEquivalence(t *testing.T, wrap func(int, http.Handler) http.Handler) {
	const seed = 42
	ctx := context.Background()
	p, err := NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewShard(testInstance(), 0, seed, p.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	local := Client(LocalClient{S: twin})
	_, remotes := httpShards(t, seed, 1, wrap, nil)
	remote := remotes[0]

	// same runs one op on both transports and compares the replies while
	// the local one still owns its buffers; it returns the remote reply.
	step := 0
	same := func(op string, call func(cl Client) (any, error)) any {
		t.Helper()
		step++
		want, err := call(local)
		if err != nil {
			t.Fatalf("step %d %s over LocalClient: %v", step, op, err)
		}
		got, err := call(remote)
		if err != nil {
			t.Fatalf("step %d %s over HTTPClient: %v", step, op, err)
		}
		if !sameMessage(want, got) {
			t.Fatalf("step %d %s: transports diverge\n local %+v\n  http %+v", step, op, want, got)
		}
		return got
	}

	same("info", func(cl Client) (any, error) { return cl.Info(ctx) })
	ads, thetas := []int{0, 1, 2}, []int{3000, 2500, 2000}
	for _, skip := range []bool{false, true} {
		pr := same("pilot", func(cl Client) (any, error) {
			return cl.Pilot(ctx, PilotRequest{Epoch: 1, Ads: ads, Want: 2000, SkipWidths: skip})
		}).(PilotReply)
		if skip != (pr.Widths == nil) || len(pr.Have) != len(ads) {
			t.Fatalf("pilot skip=%v: %d width runs, %d have", skip, len(pr.Widths), len(pr.Have))
		}
	}
	same("ensure", func(cl Client) (any, error) { return cl.Ensure(ctx, EnsureRequest{Epoch: 1, Ad: 0, Want: 3000}) })

	start := same("start", func(cl Client) (any, error) {
		return cl.Start(ctx, StartRequest{RunID: "run", Epoch: 1, Ads: ads, Thetas: thetas})
	}).(StartReply)
	if len(start.Cov) != len(ads) || len(start.Cov[0].Nodes) == 0 {
		t.Fatalf("start reply carries no coverage: %+v", start)
	}
	cov := start.Cov[0]
	seeds := cov.Nodes[:2]
	gains := func() {
		same("gains", func(cl Client) (any, error) {
			return cl.Gains(ctx, GainsRequest{RunID: "run", Ad: 0, Nodes: cov.Nodes})
		})
	}
	gains()
	seq := int64(0)
	for i, u := range seeds {
		seq++
		cr := same("commit", func(cl Client) (any, error) {
			return cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: u, Seq: seq})
		}).(CommitReply)
		if i == 0 && (cr.Covered == 0 || len(cr.Delta.Nodes) == 0) {
			t.Fatalf("commit of %d covered nothing: %+v", u, cr)
		}
	}
	// A sequenced op without a sequence number is refused, not applied: the
	// same sentinel over either transport (412 on the wire).
	step++
	for _, cl := range []Client{local, remote} {
		for _, bad := range []int64{0, -3} {
			if _, err := cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 1, Node: start.Cov[1].Nodes[0], Seq: bad}); !errors.Is(err, ErrBadSeq) {
				t.Fatalf("step %d commit with seq %d over %T = %v, want ErrBadSeq", step, bad, cl, err)
			}
		}
	}
	seq++
	same("grow", func(cl Client) (any, error) {
		return cl.Grow(ctx, GrowRequest{RunID: "run", Ad: 0, FromGlobal: thetas[0], ToGlobal: 4500, Seq: seq})
	})
	for _, u := range seeds {
		seq++
		same("credit", func(cl Client) (any, error) {
			return cl.Credit(ctx, CreditRequest{RunID: "run", Ad: 0, Node: u, FromGlobal: thetas[0], Seq: seq})
		})
	}
	gains()
	// A replay of the last sequenced op answers from the shard's cache.
	same("credit replay", func(cl Client) (any, error) {
		return cl.Credit(ctx, CreditRequest{RunID: "run", Ad: 0, Node: seeds[1], FromGlobal: thetas[0], Seq: seq})
	})
	same("end", func(cl Client) (any, error) { return struct{}{}, cl.End(ctx, "run") })
	if _, err := remote.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: seeds[0]}); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("commit after end over HTTP = %v, want ErrUnknownRun", err)
	}
	same("info after", func(cl Client) (any, error) { return cl.Info(ctx) })
}

// TestHTTPReplayBytes pins replay determinism on the wire itself: the same
// sequenced commit POSTed twice returns the same bytes, the second time
// from the shard's replay cache.
func TestHTTPReplayBytes(t *testing.T) {
	ctx := context.Background()
	shards, clients := httpShards(t, 42, 1, nil, nil)
	start, err := clients[0].Start(ctx, StartRequest{RunID: "run", Epoch: 1, Ads: []int{0}, Thetas: []int{3000}})
	if err != nil {
		t.Fatal(err)
	}
	body := (&CommitRequest{RunID: "run", Ad: 0, Node: start.Cov[0].Nodes[0], Seq: 1}).appendWire(nil)
	cl := clients[0].(*HTTPClient)
	url := cl.base + cl.paths[opCommit]
	var replies [2][]byte
	for i := range replies {
		resp, err := http.Post(url, wireContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		replies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("commit %d: status %d, err %v, body %q", i, resp.StatusCode, err, replies[i])
		}
		if resp.ContentLength != int64(len(replies[i])) {
			t.Errorf("commit %d: Content-Length %d for a %d-byte body", i, resp.ContentLength, len(replies[i]))
		}
	}
	var reply CommitReply
	if err := reply.decodeWire(replies[0]); err != nil || reply.Covered == 0 {
		t.Fatalf("first commit reply: %+v, %v", reply, err)
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("replayed commit differs on the wire:\n first %x\n  then %x", replies[0], replies[1])
	}
	if got := shards[0].commits.Value(); got != 1 {
		t.Fatalf("shard applied %d commits, want 1 (the replay must not re-apply)", got)
	}
}

// TestHTTPNilReplyDecodesNothing pins what a replay's nil reply asks of the
// transport: the reply body is read and left undecoded — one that cannot
// decode passes — while the shard's error still comes back.
func TestHTTPNilReplyDecodesNothing(t *testing.T) {
	var failing atomic.Pointer[error] // what the stub route answers with
	mux := http.NewServeMux()
	mux.HandleFunc(opTable[opCommit].path, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if err := *failing.Load(); err != nil {
			shardWriteJSON(w, statusOf(err), shardErrorBody{Error: err.Error()})
			return
		}
		w.Write([]byte{0xff}) // a varint cut short: no CommitReply decodes from it
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := NewHTTPClient(ts.URL)
	ctx := context.Background()
	req := &CommitRequest{RunID: "run", Node: 5, Seq: 1}

	failing.Store(new(error))
	if err := cl.roundTrip(ctx, opCommit, req, &CommitReply{}); err == nil {
		t.Fatal("the stub's reply decoded: the test would prove nothing")
	}
	if err := cl.roundTrip(ctx, opCommit, req, nil); err != nil {
		t.Fatalf("commit with a nil reply = %v, want the body read and not decoded", err)
	}
	refused := error(ErrBadSeq)
	failing.Store(&refused)
	if err := cl.roundTrip(ctx, opCommit, req, nil); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("commit with a nil reply to a refusing shard = %v, want ErrBadSeq", err)
	}
}

// TestHTTPErrorIdentity pins the error mapping on both body formats: each
// sentinel, and a plain 400, crosses a binary route and a JSON route with
// its identity and message intact.
func TestHTTPErrorIdentity(t *testing.T) {
	var failing atomic.Pointer[error] // what both stub routes answer with
	fail := func() error { return *failing.Load() }
	mux := http.NewServeMux()
	mux.HandleFunc(opTable[opCommit].path, route(handle(func(CommitRequest) (CommitReply, error) { return CommitReply{}, fail() })))
	mux.HandleFunc(opTable[opEnsure].path, route(handle(func(EnsureRequest) (EnsureReply, error) { return EnsureReply{}, fail() })))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := NewHTTPClient(ts.URL)
	ctx := context.Background()
	routes := []struct {
		name string
		call func() error
	}{
		{"binary", func() error { _, err := cl.Commit(ctx, CommitRequest{RunID: "r"}); return err }},
		{"json", func() error { _, err := cl.Ensure(ctx, EnsureRequest{Ad: 1}); return err }},
	}
	for _, rt := range routes {
		for _, sentinel := range []error{ErrStaleEpoch, ErrUnknownRun, ErrBadSeq, ErrDraining} {
			failing.Store(&sentinel)
			if err := rt.call(); !errors.Is(err, sentinel) {
				t.Errorf("%s route: %v came back as %v", rt.name, sentinel, err)
			}
		}
		plain := errors.New("ad 7 out of range")
		failing.Store(&plain)
		var rpcErr *RPCError
		if err := rt.call(); !errors.As(err, &rpcErr) || rpcErr.Status != http.StatusBadRequest || rpcErr.Msg != "ad 7 out of range" {
			t.Errorf("%s route: plain failure came back as %v", rt.name, err)
		}
		failing.Store(new(error))
		if err := rt.call(); err != nil {
			t.Errorf("%s route: success came back as %v", rt.name, err)
		}
	}

	// No negotiation: a JSON body on a binary route is a 400 that says why.
	resp, err := http.Post(ts.URL+opTable[opCommit].path, "application/json", bytes.NewReader([]byte(`{"runId":"r","ad":0,"node":5}`)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("same version")) {
		t.Errorf("JSON on a binary route: status %d, body %s", resp.StatusCode, msg)
	}
	// An oversized run-op body is refused at the route's cap.
	resp, err = http.Post(ts.URL+opTable[opCommit].path, wireContentType, bytes.NewReader(make([]byte, maxRunBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if _, err := NewHTTPClient("http://bad host/").Info(ctx); err == nil {
		t.Error("a malformed daemon address must fail its calls")
	}
}

// TestHTTPConnectionReuse pins what reading every reply to EOF and the
// client's own idle pool buy: a coordinator's sequential RPC stream to a
// shard rides one connection, and concurrent allocations keep theirs
// between waves. (Replies read short of EOF cost a connection each:
// hundreds for the same traffic.)
func TestHTTPConnectionReuse(t *testing.T) { testConnectionReuse(t, hideHijack) }

// TestFrameConnectionReuse is TestHTTPConnectionReuse over upgraded
// connections: the upgrade is the connection's first exchange, so the
// counts are the same.
func TestFrameConnectionReuse(t *testing.T) { testConnectionReuse(t, nil) }

// testConnectionReuse runs the connection-reuse checks against daemons
// behind wrap (httpShards).
func testConnectionReuse(t *testing.T, wrap func(int, http.Handler) http.Handler) {
	const k = 2
	// Half of the ten ads: half the rounds and the same mix of RPCs.
	req := core.Request{Opts: testOpts(), Ads: []int{0, 1, 2, 3, 4}}
	ctx := context.Background()
	cluster := func() (*Coordinator, func(i int) int64) {
		var opened [k]atomic.Int64
		_, clients := httpShards(t, 42, k, wrap, func(i int, st http.ConnState) {
			if st == http.StateNew {
				opened[i].Add(1)
			}
		})
		coord, err := NewCoordinator(ctx, clients, Config{Roster: testInstance()})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, req.Opts); err != nil {
			t.Fatal(err)
		}
		return coord, func(i int) int64 { return opened[i].Load() }
	}

	t.Run("sequential", func(t *testing.T) {
		coord, opened := cluster()
		for i := 0; i < 50; i++ {
			if _, err := coord.Allocate(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			if n := opened(i); n > 2 {
				t.Errorf("shard %d accepted %d connections for 50 sequential allocations, want ≤ 2", i, n)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const clients = 8
		coord, opened := cluster()
		wave := func() {
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						if _, err := coord.Allocate(ctx, req); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
		}
		wave()
		var first [k]int64
		for i := range first {
			first[i] = opened(i)
			// A dial that loses the race to a connection freed meanwhile
			// still completes and joins the pool, so a cold wave may
			// overshoot its concurrency; it may not churn.
			if first[i] > 2*clients {
				t.Errorf("shard %d accepted %d connections for %d concurrent clients", i, first[i], clients)
			}
		}
		wave()
		for i := range first {
			if n := opened(i); first[i] >= clients && n != first[i] {
				t.Errorf("shard %d accepted %d more connections on the second wave; %d were idle", i, n-first[i], first[i])
			}
		}
	})
}

// countingServer serves h on a started httptest server that counts the
// connections it accepts. The server closes at cleanup.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &opened
}

// TestHTTPResendOnClosedIdleConnection pins what the resend rule is for: a
// held connection the daemon closed while it sat idle fails the next
// request before any reply byte, and the client sends that request again
// once, on a fresh dial — so the commit succeeds, and the shard applies it
// exactly once.
func TestHTTPResendOnClosedIdleConnection(t *testing.T) {
	testResendOnClosedIdle(t, true, func(ts *httptest.Server, _ *Shard) { ts.CloseClientConnections() })
}

// TestFrameResendOnClosedIdleConnection is its framed twin: the daemon
// closes its upgraded connection between frames, the client sends the
// commit again on a fresh dial, which upgrades again.
func TestFrameResendOnClosedIdleConnection(t *testing.T) {
	testResendOnClosedIdle(t, false, func(_ *httptest.Server, s *Shard) {
		s.frames.mu.Lock()
		defer s.frames.mu.Unlock()
		for c := range s.frames.busyOf {
			c.Close()
		}
	})
}

// testResendOnClosedIdle runs the resend-on-closed-idle check against a
// shard behind hideHijack (overHTTP) or upgrading; closeHeld closes the
// daemon's side of the connection the client holds.
func testResendOnClosedIdle(t *testing.T, overHTTP bool, closeHeld func(*httptest.Server, *Shard)) {
	leakcheck.Check(t)
	ctx := context.Background()
	p, err := NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(testInstance(), 0, 42, p.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if overHTTP {
		h = hideHijack(0, h)
	}
	ts, opened := countingServer(t, h)
	t.Cleanup(s.Close)
	cl := NewHTTPClient(ts.URL)
	start, err := cl.Start(ctx, StartRequest{RunID: "run", Epoch: 1, Ads: []int{0}, Thetas: []int{3000}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := start.Cov[0].Nodes
	if _, err := cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: nodes[0], Seq: 1}); err != nil {
		t.Fatal(err)
	}
	closeHeld(ts, s)
	if _, err := cl.Commit(ctx, CommitRequest{RunID: "run", Ad: 0, Node: nodes[len(nodes)-1], Seq: 2}); err != nil {
		t.Fatalf("commit after the daemon closed the held connection: %v", err)
	}
	if got := s.commits.Value(); got != 2 {
		t.Errorf("shard applied %d commits, want 2", got)
	}
	if got := opened.Load(); got != 2 {
		t.Errorf("daemon accepted %d connections, want 2 (the held one, then one redial)", got)
	}
	want := uint32(envelopeFrames)
	if overHTTP {
		want = envelopeHTTP
	}
	if got := cl.envelope.Load(); got != want {
		t.Errorf("client envelope %d, want %d", got, want)
	}
}

// TestHTTPResendRule pins what is never sent again: a request whose reply
// had begun when the connection broke, and one that failed on a connection
// dialled for it. A request that failed before any reply byte on a reused
// connection is sent again exactly once. The stub counts how often its
// handler ran.
func TestHTTPResendRule(t *testing.T) {
	leakcheck.Check(t)
	const (
		answer = iota // a valid empty CommitReply
		drop          // close the connection without a byte
		cut           // close it a byte into the reply body
	)
	var mode atomic.Int32
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(opTable[opCommit].path, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		m := mode.Load()
		if m == answer {
			w.Write((&CommitReply{}).appendWire(nil))
			return
		}
		conn, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		if m == cut {
			bw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n\x01")
			bw.Flush()
		}
		conn.Close()
	})
	ts, _ := countingServer(t, mux)
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
		cl := NewHTTPClient(ts.URL)
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
			t.Errorf("%s: the handler ran %d times, want %d", tc.name, got, tc.calls)
		}
		if n := len(cl.idle); n != 0 {
			t.Errorf("%s: %d broken connections went back to the pool", tc.name, n)
		}
	}
}

// TestHTTPReplyFraming pins how the client reads an HTTP reply framed in
// any way HTTP/1.1 allows, which the daemon's own routes (always a
// Content-Length) never show it: a chunked body, one ended by the
// connection's close, one behind an interim 100 Continue, and an error body
// past maxErrorBody, cut to it. A connection goes back to the pool only if
// its reply left it open, and a head past the client's budget fails the
// call. Every client first asks to upgrade and is refused with Connection:
// close, so it dials again and speaks HTTP. The stub writes each reply raw.
func TestHTTPReplyFraming(t *testing.T) {
	leakcheck.Check(t)
	var reply atomic.Value // the string the stub answers Info with
	answer := func(w http.ResponseWriter, raw string) {
		conn, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		bw.WriteString(raw)
		bw.Flush()
	}
	mux := http.NewServeMux()
	mux.HandleFunc(framesPath, func(w http.ResponseWriter, _ *http.Request) {
		answer(w, "HTTP/1.1 404 Not Found\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
	})
	mux.HandleFunc(opTable[opInfo].path, func(w http.ResponseWriter, _ *http.Request) {
		answer(w, reply.Load().(string))
	})
	ts, opened := countingServer(t, mux)

	const info = `{"shard":1,"numShards":3}`
	sized := func(head, body string) string {
		return fmt.Sprintf("%sContent-Length: %d\r\n\r\n%s", head, len(body), body)
	}
	decodes := func(t *testing.T, got ShardInfo, err error) {
		if err != nil || got.Shard != 1 || got.NumShards != 3 {
			t.Errorf("Info = %+v, %v; want shard 1 of 3", got, err)
		}
	}
	for _, tc := range []struct {
		name   string
		raw    string
		pooled bool
		check  func(t *testing.T, got ShardInfo, err error)
	}{
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", 10, info[:10], len(info)-10, info[10:]),
			true, decodes},
		{"HTTP/1.0 close-delimited", "HTTP/1.0 200 OK\r\n\r\n" + info, false, decodes},
		{"Connection: close", sized("HTTP/1.1 200 OK\r\nConnection: close\r\n", info), false, decodes},
		{"interim 100 Continue", "HTTP/1.1 100 Continue\r\n\r\n" + sized("HTTP/1.1 200 OK\r\n", info), true, decodes},
		{"502 past maxErrorBody", sized("HTTP/1.1 502 Bad Gateway\r\n", `{"error":"`+strings.Repeat("x", 20<<10)+`"}`), true,
			func(t *testing.T, _ ShardInfo, err error) {
				var re *RPCError
				if !errors.As(err, &re) || re.Status != http.StatusBadGateway || len(re.Msg) != maxErrorBody {
					t.Errorf("err = %v; want an RPCError 502 with a %d-byte message", err, maxErrorBody)
				}
			}},
		{"1 MB header line", sized("HTTP/1.1 200 OK\r\nX-Pad: "+strings.Repeat("a", 1<<20)+"\r\n", info), false,
			func(t *testing.T, got ShardInfo, err error) {
				if err == nil {
					t.Errorf("Info = %+v; want the call failed", got)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			reply.Store(tc.raw)
			before := opened.Load()
			cl := NewHTTPClient(ts.URL)
			defer cl.Close()
			got, err := cl.Info(ctx)
			tc.check(t, got, err)
			if pooled := len(cl.idle) == 1; pooled != tc.pooled {
				t.Errorf("connection pooled: %v, want %v", pooled, tc.pooled)
			}
			if n := opened.Load() - before; n != 2 {
				t.Errorf("daemon accepted %d connections, want 2 (the refused upgrade, then one redial)", n)
			}
			if got := cl.envelope.Load(); got != envelopeHTTP {
				t.Errorf("client envelope %d, want %d (HTTP)", got, envelopeHTTP)
			}
		})
	}
}

// TestHTTPDeadlineAndCancel pins how a call to a daemon that never answers
// ends: at its ctx's deadline with context.DeadlineExceeded, which the
// retry layer retries, or at its cancellation with context.Canceled, which
// it does not. Neither connection goes back to the pool, and the next call
// succeeds on a fresh one.
func TestHTTPDeadlineAndCancel(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc(opTable[opInfo].path, func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, ShardInfo{NumShards: 1})
	})
	mux.HandleFunc(opTable[opCommit].path, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	ts, opened := countingServer(t, mux)
	t.Cleanup(func() { close(release) }) // before the server closes
	cl := NewHTTPClient(ts.URL)
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
	// The 5 s backstop ends the call should the cancellation not reach it.
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
	before := opened.Load()
	if _, err := cl.Info(ctx); err != nil {
		t.Fatalf("call after the expired ones: %v", err)
	}
	if got := opened.Load() - before; got != 1 {
		t.Errorf("the next call opened %d connections, want 1", got)
	}
}

// TestHTTPSParity serves K = 2 shards over TLS and over plain HTTP. An
// https:// client that trusts the test certificate reads the same Info and
// allocates the same bytes; one on the default roots is refused.
func TestHTTPSParity(t *testing.T) { testTLSParity(t, hideHijack) }

// TestFramesOverTLS is TestHTTPSParity over upgraded connections: Hijack
// hands the daemon the tls.Conn, and frames travel inside TLS.
func TestFramesOverTLS(t *testing.T) { testTLSParity(t, nil) }

// testTLSParity runs the TLS parity check against daemons behind wrap.
func testTLSParity(t *testing.T, wrap func(int, http.Handler) http.Handler) {
	leakcheck.Check(t)
	const seed, k = 42, 2
	ctx := context.Background()
	p, err := NewPartitioner(k)
	if err != nil {
		t.Fatal(err)
	}
	var plain, secure []Client
	var untrusted *HTTPClient
	for i := 0; i < k; i++ {
		for _, overTLS := range []bool{false, true} {
			s, err := NewShard(testInstance(), 0, seed, p.Range(i))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			h := s.Handler()
			if wrap != nil {
				h = wrap(i, h)
			}
			ts := httptest.NewUnstartedServer(h)
			if !overTLS {
				ts.Start()
				t.Cleanup(ts.Close)
				plain = append(plain, NewHTTPClient(ts.URL))
				continue
			}
			ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake below
			ts.StartTLS()
			t.Cleanup(ts.Close)
			roots := x509.NewCertPool()
			roots.AddCert(ts.Certificate())
			cl := NewHTTPClient(ts.URL)
			cl.tlsConfig = &tls.Config{RootCAs: roots}
			secure = append(secure, cl)
			untrusted = NewHTTPClient(ts.URL)
		}
	}
	if !untrusted.tls {
		t.Fatalf("%s did not select TLS", untrusted.base)
	}
	for i := range plain {
		want, err := plain[i].Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := secure[i].Info(ctx)
		if err != nil {
			t.Fatalf("info over TLS: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shard %d info: http %+v, https %+v", i, want, got)
		}
	}
	if _, err := untrusted.Info(ctx); err == nil {
		t.Error("a client on the default roots trusted the test certificate")
	}

	inst, req := testInstance(), core.Request{Opts: testOpts()}
	allocate := func(clients []Client) *core.TIRMResult {
		t.Helper()
		coord, err := NewCoordinator(ctx, clients, Config{Roster: inst})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Warm(ctx, req.Opts); err != nil {
			t.Fatal(err)
		}
		res, err := coord.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustEqualResults(t, "https K=2", inst, req, allocate(plain), allocate(secure))
	want := uint32(envelopeFrames)
	if wrap != nil {
		want = envelopeHTTP
	}
	for _, cl := range append(plain, secure...) {
		if got := cl.(*HTTPClient).envelope.Load(); got != want {
			t.Errorf("%s: envelope %d, want %d", cl.(*HTTPClient).base, got, want)
		}
	}
}

// TestDaemonHasNoEstimatesRoute pins the version-skew behaviour of the
// retired estimator push: a shard holds no bandit state, so an older
// coordinator's POST /shard/estimates meets a 404, and the deprecated
// Client.SyncEstimates opens no connection at all.
func TestDaemonHasNoEstimatesRoute(t *testing.T) {
	p, err := NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(testInstance(), 0, 7, p.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts, opened := countingServer(t, s.Handler())
	resp, err := http.Post(ts.URL+"/shard/estimates", "application/json", strings.NewReader(`{"state":{"events":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /shard/estimates = %d, want 404", resp.StatusCode)
	}

	cl := NewHTTPClient(ts.URL)
	defer cl.Close()
	before := opened.Load()
	if err := cl.SyncEstimates(context.Background(), SyncEstimatesRequest{}); err != nil {
		t.Fatalf("SyncEstimates = %v, want nil", err)
	}
	if n := opened.Load() - before; n != 0 {
		t.Fatalf("SyncEstimates opened %d connections, want 0", n)
	}
}
