// HTTP transport for the shard protocol. The six run ops the greedy loop
// issues (pilot, start, commit, credit, grow, gains) speak the binary
// integer codec of wire.go; the lifecycle routes speak JSON. Every run
// payload field is an integer (see protocol.go), so either spelling
// round-trips exactly and a coordinator over HTTP produces bit-identical
// allocations to one over the in-process transport — pinned by the golden
// tests. Sentinel errors map onto status codes (409 stale epoch, 404
// unknown run, 412 bad sequence, 503 draining) and back, and every other
// non-200 decodes into a typed RPCError carrying the status, so retry
// classification is transport-blind; an error's body is {"error": …} on
// every route. The daemon serves with net/http. The coordinator's client
// (HTTPClient) holds its own connections, writes each request on one of
// them itself and reads the reply with net/http's parser. Each connection
// it dials asks to upgrade to frames (frames.go), so HTTP carries its ops
// only to a daemon that cannot hand over its connections.

package shard

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Handler returns the shard daemon's HTTP routes (mounted by cmd/adshard):
//
//	GET  /healthz       — liveness
//	GET  /shard/info    — ShardInfo
//	POST /shard/pilot   — PilotRequest  → PilotReply   (binary, wire.go)
//	POST /shard/ensure  — EnsureRequest → EnsureReply
//	POST /shard/start   — StartRequest  → StartReply   (binary)
//	POST /shard/commit  — CommitRequest → CommitReply  (binary)
//	POST /shard/credit  — CreditRequest → CommitReply  (binary)
//	POST /shard/grow    — GrowRequest   → GrowReply    (binary)
//	POST /shard/gains   — GainsRequest  → GainsReply   (binary)
//	POST /shard/end     — {"runId": …}  → {}
//	POST /shard/ads     — AddAdRequest  → MutateReply
//	POST /shard/remove  — RemoveAdRequest → MutateReply
//	POST /shard/drain   — {} (refuse new runs from now on)
//	GET  /shard/frames  — upgrade to framed ops (frames.go)
//	GET  /metrics       — Prometheus text exposition
//
// Every route but /shard/frames is wrapped in the obs middleware:
// per-endpoint request metrics, X-Trace-Id extraction/echo (so a
// coordinator's trace id ties its RPC fan-out together in the logs of every
// daemon), and — when Shard.Logf is set — one structured key=value log line
// per request. The upgrade sits beside the middleware, which would otherwise
// time a whole connection as one request; its frames are metered one by
// one into the same families, under the same labels.
func (s *Shard) Handler() http.Handler {
	ops := s.handlers()
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.tracer.Handler())
	mux.Handle("/debug/traces/", s.tracer.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	for o, h := range ops {
		mux.HandleFunc(opTable[o].path, route(h))
	}
	mux.HandleFunc(drainPath, route(handle(func(struct{}) (struct{}, error) {
		s.Drain()
		return struct{}{}, nil
	})))
	instrumented := obs.Instrument(mux, s.httpMetrics, obs.InstrumentOptions{
		Component: "adshard",
		Logf:      s.Logf,
		// RPC routes all share the "shard" first path segment; label by the
		// whole route so per-operation latency stays visible.
		Endpoint: shardEndpoint,
		Tracer:   s.tracer,
	})
	frames := s.newFrameServer(ops)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == framesPath {
			frames.upgrade(w, r)
			return
		}
		instrumented.ServeHTTP(w, r)
	})
}

// handlers returns the shard's op handlers, one per opTable row: the one
// body of each op, which the HTTP routes and the frame loop both call.
func (s *Shard) handlers() [numOps]opHandler {
	return [numOps]opHandler{
		opInfo: {serve: func(_, dst []byte) (int, []byte) {
			return http.StatusOK, appendJSON(dst, s.Info())
		}},
		opPilot:  handle(s.Pilot),
		opEnsure: handle(s.Ensure),
		opStart:  handle(s.Start),
		opCommit: handle(s.Commit),
		opCredit: handle(s.Credit),
		opGrow:   handle(s.Grow),
		opGains:  handle(s.Gains),
		opEnd: handle(func(req endRequest) (struct{}, error) {
			s.End(req.RunID)
			return struct{}{}, nil
		}),
		opAddAd:    handle(s.AddAd),
		opRemoveAd: handle(s.RemoveAd),
	}
}

// shardEndpoint maps a daemon route onto its metric label: the mux pattern
// with slashes flattened ("/shard/commit" → "shard_commit"). The pattern set
// is fixed by the mux, so cardinality is bounded.
func shardEndpoint(route string) string {
	p := strings.Trim(route, "/")
	if p == "" {
		return "root"
	}
	return strings.ReplaceAll(p, "/", "_")
}

// endRequest is the wire form of End.
type endRequest struct {
	// RunID names the run to close.
	RunID string `json:"runId"`
}

// shardErrorBody is the wire form of an RPC error.
type shardErrorBody struct {
	// Error is the message; sentinel identity travels in the status code.
	Error string `json:"error"`
}

// statusOf maps sentinel errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrStaleEpoch):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownRun):
		return http.StatusNotFound
	case errors.Is(err, ErrBadSeq):
		return http.StatusPreconditionFailed
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// RPCError is a non-sentinel RPC failure with its HTTP status preserved,
// so the retry layer can classify what the sentinels don't cover: 5xx
// (the shard or a proxy in front of it failed — retryable) versus 4xx
// (the request itself is wrong — terminal).
type RPCError struct {
	// Status is the HTTP status code the shard answered with.
	Status int
	// Msg is the error body.
	Msg string
}

// Error implements error.
func (e *RPCError) Error() string {
	return fmt.Sprintf("shard: rpc failed (%d): %s", e.Status, e.Msg)
}

// errOf is statusOf's inverse on the client side.
func errOf(status int, msg string) error {
	switch status {
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrStaleEpoch, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrUnknownRun, msg)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("%w: %s", ErrBadSeq, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return &RPCError{Status: status, Msg: msg}
	}
}

// Request body caps, per route family. A run op's request is a run id, a
// few scalars and at most one list of ad positions or frontier nodes; a
// lifecycle request is at most an ad spec.
const (
	maxRunBody       = 1 << 20
	maxLifecycleBody = 8 << 20
	// maxPooledBody is the largest buffer bodyBufs keeps: one outsized
	// message must not pin its buffer for the life of the process.
	maxPooledBody = 4 << 20
)

// bodyBufs recycles the buffers whole bodies are read into and binary
// messages are built in, on both ends. Decoders copy what they keep, so a
// buffer goes back as soon as its message is decoded or written.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// putBodyBuf returns a buffer no larger than maxPooledBody to the pool.
func putBodyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
}

// readBody appends r to buf until EOF — io.ReadAll over a caller-owned
// buffer. Reading a body to EOF is also what lets either end reuse the
// connection.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// opHandler is one op's daemon half, whichever envelope carried it: serve
// decodes a request body, runs the op and appends the reply body to dst,
// returning its status. dst may share body's array: a request is decoded
// whole (decoders copy what they keep) before any reply byte is written.
// limit caps the request body; 0 marks the op that takes none (info, a GET
// over HTTP). wire says the op speaks the binary codec of wire.go.
type opHandler struct {
	limit int64
	wire  bool
	serve func(body, dst []byte) (status int, reply []byte)
}

// handle makes fn an opHandler. Its format follows from the request type by
// the rule HTTPClient applies on the other end: a run op — one whose request
// is a wireMessage — speaks the binary codec of wire.go, every other op
// JSON. A failure's body is {"error": …} in either case, under statusOf's
// status.
func handle[Req, Reply any](fn func(Req) (Reply, error)) opHandler {
	var probe Req
	_, wire := any(&probe).(wireMessage)
	limit := int64(maxLifecycleBody)
	if wire {
		limit = maxRunBody
	}
	return opHandler{limit: limit, wire: wire, serve: func(body, dst []byte) (int, []byte) {
		var req Req
		var err error
		if m, ok := any(&req).(wireMessage); ok {
			err = m.decodeWire(body)
		} else {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		}
		if err != nil {
			msg := fmt.Sprintf("bad request body: %v", err)
			if wire && len(body) > 0 && body[0] == '{' {
				// No negotiation: a mixed-version cluster fails here, on its
				// first pilot, and should be told why.
				msg += " (this route speaks the binary run-op codec, not JSON: coordinator and shard must be the same version)"
			}
			return http.StatusBadRequest, appendJSON(dst, shardErrorBody{Error: msg})
		}
		reply, err := fn(req)
		if err != nil {
			return statusOf(err), appendJSON(dst, shardErrorBody{Error: err.Error()})
		}
		if wire {
			return http.StatusOK, any(&reply).(wireMessage).appendWire(dst)
		}
		return http.StatusOK, appendJSON(dst, reply)
	}}
}

// route serves one op over HTTP: a POST whose body is read whole into a
// pooled buffer (any method for the bodiless info), answered from the same
// buffer with its Content-Length.
func route(h opHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bp := bodyBufs.Get().(*[]byte)
		buf := (*bp)[:0]
		defer func() { putBodyBuf(bp, buf) }()
		status := http.StatusOK
		switch {
		case h.limit == 0:
			status, buf = h.serve(nil, buf)
		case r.Method != http.MethodPost:
			status, buf = http.StatusMethodNotAllowed, appendJSON(buf, shardErrorBody{Error: "use POST"})
		default:
			var err error
			if buf, err = readBody(http.MaxBytesReader(w, r.Body, h.limit), buf); err != nil {
				status, buf = http.StatusBadRequest, appendJSON(buf[:0], shardErrorBody{Error: fmt.Sprintf("bad request body: %v", err)})
			} else {
				status, buf = h.serve(buf, buf[:0])
			}
		}
		contentType := "application/json"
		if h.wire && status == http.StatusOK {
			contentType = wireContentType
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(status)
		w.Write(buf)
	}
}

// wireContentType labels a binary run-op body.
const wireContentType = "application/octet-stream"

func shardWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(appendJSON(nil, v))
}

// appendJSON appends v's JSON encoding and a newline to dst, HTML left
// unescaped.
func appendJSON(dst []byte, v any) []byte {
	b := bytes.NewBuffer(dst)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
	return b.Bytes()
}

// drainPath is the one /shard/ route that is not a Client op (those are in
// opTable): an operator action.
const drainPath = "/shard/drain"

// HTTPClient speaks the shard protocol to a remote shard daemon. It holds
// its own connections: an RPC takes a held connection (or dials one),
// writes its whole request with one Write and reads the reply on the
// caller's goroutine, so a call hands nothing to another goroutine and
// builds no request value. Each connection it dials asks the daemon to
// upgrade it to framed ops (frames.go); from then on every op on it is one
// frame each way. A daemon that answers the upgrade
// with anything but 101 — an older build, or one behind a wrapper that
// cannot hand over its connections — is spoken to over HTTP from then on,
// without asking again. Shard daemons are dialled directly; no proxy is
// consulted.
type HTTPClient struct {
	typedClient // every op through roundTrip

	// base is the daemon's "scheme://host" (for messages), addr its dial
	// address, host its Host header, and paths each op's request target
	// (frames the upgrade's), all fixed at construction.
	base, addr, host string
	paths            [numOps]string
	frames           string
	// tls marks an https:// daemon, dialled under tlsConfig; nil is the
	// default configuration, which trusts the system roots.
	tls       bool
	tlsConfig *tls.Config
	// addrErr is why the address did not parse; every call returns it.
	addrErr error

	// envelope is what the daemon answered the upgrade: envelopeUnknown
	// until a dial has asked, then envelopeFrames or, for good,
	// envelopeHTTP. probe is held by the dial that asks, so a client asks
	// one daemon that refuses only once.
	envelope atomic.Uint32
	probe    sync.Mutex

	mu sync.Mutex
	// idle holds the connections no call is using, the most recently used
	// last. One client talks to one daemon, and a daemon holds at most
	// maxOpenRuns runs, each issuing its RPCs one at a time — so that many
	// is what full load keeps busy, and what the pool keeps.
	idle []*httpConn
	// closed is set by Close: a connection a call gives back is closed,
	// not held.
	closed bool
}

// The envelope a client speaks to its daemon.
const (
	envelopeUnknown = iota
	envelopeFrames
	envelopeHTTP
)

const (
	// maxIdleTime is how long a held connection may sit idle; a checkout
	// closes an older one instead of using it.
	maxIdleTime = 90 * time.Second
	// maxErrorBody is how much of an error reply's body is kept.
	maxErrorBody = 16 << 10
	// maxReplyHead bounds what a daemon can make the client read for one
	// HTTP reply's head — its status line, header and any interim replies —
	// beyond the reader's first fill.
	maxReplyHead = 64 << 10
	// closeWait bounds how long Close waits for daemons to close their end
	// of its upgraded connections.
	closeWait = time.Second
)

// NewHTTPClient creates a client for a shard daemon at addr
// ("host:port" or a full http:// or https:// base URL). An RPC is bounded
// only by its caller's context: the retry layer (NewRetryClient) sets a
// per-attempt, per-op deadline on every call a coordinator makes. Close
// releases the connections it holds.
func NewHTTPClient(addr string) *HTTPClient {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	c := &HTTPClient{}
	c.typedClient = typedClient{c}
	base, err := url.Parse(addr)
	if err != nil {
		// The constructor has always been infallible; a malformed address
		// fails every call instead, starting with NewCoordinator's Info probe.
		c.addrErr = fmt.Errorf("shard: bad daemon address %q: %w", addr, err)
		return c
	}
	c.tls = base.Scheme == "https"
	c.base, c.addr, c.host = base.Scheme+"://"+base.Host, base.Host, base.Host
	if base.Port() == "" {
		port := "80"
		if c.tls {
			port = "443"
		}
		c.addr = net.JoinHostPort(base.Hostname(), port)
	}
	prefix := strings.TrimRight(base.EscapedPath(), "/")
	for o, row := range opTable {
		c.paths[o] = prefix + row.path
	}
	c.frames = prefix + framesPath
	return c
}

// Close closes every connection the client holds. An upgraded connection
// is half-closed first and closes once the daemon has closed its end, within
// closeWait: the daemon's frame loop for it, which keeps the daemon's shard
// reachable, is then on its way out rather than waiting for its next
// frame. A call still
// running closes its connection when it ends instead of handing it back; a
// later call dials afresh, and closes that connection too.
func (c *HTTPClient) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	until := time.Now().Add(closeWait)
	var ending []*httpConn
	for _, cn := range idle {
		if hc, ok := cn.Conn.(interface{ CloseWrite() error }); ok && cn.framed && hc.CloseWrite() == nil {
			cn.SetReadDeadline(until)
			ending = append(ending, cn)
			continue
		}
		cn.Close()
	}
	for _, cn := range ending {
		cn.br.WriteTo(io.Discard) // to the daemon's close, or the deadline
		cn.Close()
	}
	return nil
}

// roundTrip sends one op: the binary codec of wire.go when the request is
// a wireMessage (the rule handle applies on the daemon), JSON otherwise.
func (c *HTTPClient) roundTrip(ctx context.Context, o op, req, reply any) error {
	return c.do(ctx, o, req, reply)
}

// do sends op o with in as its body — none when in is nil (info, a GET over
// HTTP) — and decodes the reply body into out in the format in was sent in;
// a nil out is not decoded. The body is encoded into a pooled buffer and
// copied into the connection's envelope, a frame or an HTTP request; the
// reply is then read into the same buffer and decoded from it.
func (c *HTTPClient) do(ctx context.Context, o op, in, out any) error {
	if c.addrErr != nil {
		return c.addrErr
	}
	bp := bodyBufs.Get().(*[]byte)
	buf := *bp
	defer func() { putBodyBuf(bp, buf) }()
	contentType := ""
	m, wire := in.(wireMessage)
	switch {
	case wire:
		buf, contentType = m.appendWire(buf[:0]), wireContentType
	case in != nil:
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		buf, contentType = append(buf[:0], body...), "application/json"
	}
	cn, reused, err := c.conn(ctx)
	if err != nil {
		return c.fail(ctx, o, err)
	}
	status, buf, err := c.send(ctx, cn, reused, o, contentType, buf)
	if err != nil {
		return c.fail(ctx, o, err)
	}
	if status != http.StatusOK {
		var eb shardErrorBody
		if json.Unmarshal(buf, &eb) == nil && eb.Error != "" {
			return errOf(status, eb.Error)
		}
		return errOf(status, string(buf))
	}
	if out == nil {
		return nil
	}
	if wire {
		return out.(wireMessage).decodeWire(buf)
	}
	return json.Unmarshal(buf, out)
}

// wrap puts op o's body into cn's request buffer in cn's envelope: a frame
// on an upgraded connection, an HTTP request (GET when contentType is
// empty) on any other.
func (c *HTTPClient) wrap(ctx context.Context, cn *httpConn, o op, contentType string, body []byte) {
	if cn.framed {
		cn.wbuf = appendFrame(ctx, cn.wbuf[:0], o, body)
		return
	}
	cn.wbuf = c.appendRequest(ctx, cn.wbuf[:0], c.paths[o], contentType, body)
}

// appendRequest appends one request to b: the request line (GET when there
// is no body), Host, the body's type and length, ctx's trace headers
// (obs.Inject), and the body.
func (c *HTTPClient) appendRequest(ctx context.Context, b []byte, path, contentType string, body []byte) []byte {
	if contentType == "" {
		b = append(b, "GET "...)
	} else {
		b = append(b, "POST "...)
	}
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = appendHeader(b, "Host", c.host)
	if contentType != "" {
		b = appendHeader(b, "Content-Type", contentType)
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	obs.Inject(ctx, func(key, value string) { b = appendHeader(b, key, value) })
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// appendHeader appends the header line "key: value". A value holding a
// control character would end the head early, so it is left out: trace
// propagation is best effort and never fails an RPC.
func appendHeader(b []byte, key, value string) []byte {
	if !printable(value) {
		return b
	}
	b = append(b, key...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

// printable reports whether s holds no control character.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if ch := s[i]; ch < ' ' && ch != '\t' || ch == 0x7f {
			return false
		}
	}
	return true
}

// fail names the route an exchange failed on. Once ctx is done, or the
// deadline it set on the connection has passed, the error is ctx's, so
// Classify buckets it as a timeout (retryable) or a cancellation
// (terminal) whatever the connection reported.
func (c *HTTPClient) fail(ctx context.Context, o op, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("shard: %s%s: %w", c.base, c.paths[o], err)
}

// httpConn is one held connection: its reader, the buffer its requests
// are assembled in, and when it last went idle.
type httpConn struct {
	net.Conn
	br *bufio.Reader
	// head is the reader under br. It passes any number of bytes, except
	// while an HTTP reply's head is read, when it passes maxReplyHead.
	head   io.LimitedReader
	wbuf   []byte
	idleAt time.Time
	// framed marks a connection the daemon upgraded: its ops travel as
	// frames (frames.go), not HTTP requests.
	framed bool
	// expire sets a deadline in the past, failing any read or write in
	// flight; context.AfterFunc runs it when a call's ctx is cancelled.
	expire func()
}

// conn checks out the most recently used idle connection, or connects one
// when none is idle; reused reports which. The pool is LIFO, so when its
// top connection has idled past maxIdleTime every one under it has too,
// and all of them are closed.
func (c *HTTPClient) conn(ctx context.Context) (cn *httpConn, reused bool, err error) {
	var stale []*httpConn
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		if time.Since(c.idle[n-1].idleAt) > maxIdleTime {
			stale, c.idle = c.idle, nil
		} else {
			cn = c.idle[n-1]
			c.idle[n-1] = nil
			c.idle = c.idle[:n-1]
		}
	}
	c.mu.Unlock()
	for _, s := range stale {
		s.Close()
	}
	if cn != nil {
		return cn, true, nil
	}
	cn, err = c.connect(ctx)
	return cn, false, err
}

// connect dials a connection and, unless the daemon has refused before,
// upgrades it (frames.go). A 101 makes it framed. Any other answer makes
// this client speak HTTP from then on: the connection carries on as an HTTP
// one when the answer left it usable, else a fresh one is dialled. A failed
// handshake is a failed dial.
func (c *HTTPClient) connect(ctx context.Context) (*httpConn, error) {
	cn, err := c.dial(ctx)
	if err != nil || c.envelope.Load() == envelopeHTTP {
		return cn, err
	}
	if c.envelope.Load() == envelopeUnknown {
		c.probe.Lock()
		defer c.probe.Unlock()
		if c.envelope.Load() == envelopeHTTP {
			return cn, nil
		}
	}
	cn.wbuf = c.appendUpgrade(cn.wbuf[:0])
	status, _, _, reusable, err := cn.exchange(ctx, nil)
	if err != nil {
		cn.Close()
		return nil, err
	}
	if status == http.StatusSwitchingProtocols {
		cn.framed = true
		c.envelope.Store(envelopeFrames)
		return cn, nil
	}
	c.envelope.Store(envelopeHTTP)
	if reusable {
		return cn, nil
	}
	cn.Close()
	return c.dial(ctx)
}

// dial opens a connection to the daemon, through TLS for an https:// one.
func (c *HTTPClient) dial(ctx context.Context) (*httpConn, error) {
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	var nc net.Conn
	var err error
	if c.tls {
		nc, err = (&tls.Dialer{NetDialer: d, Config: c.tlsConfig}).DialContext(ctx, "tcp", c.addr)
	} else {
		nc, err = d.DialContext(ctx, "tcp", c.addr)
	}
	if err != nil {
		return nil, err
	}
	past := time.Unix(1, 0)
	cn := &httpConn{Conn: nc, head: io.LimitedReader{R: nc, N: math.MaxInt64}, expire: func() { nc.SetDeadline(past) }}
	cn.br = bufio.NewReader(&cn.head)
	return cn, nil
}

// put returns a connection whose last exchange completed to the pool, or
// closes it when the pool already holds maxOpenRuns or the client is
// closed. As with bodyBufs, an outsized request does not pin its buffer for
// the connection's life.
func (c *HTTPClient) put(cn *httpConn) {
	if cap(cn.wbuf) > maxPooledBody {
		cn.wbuf = nil
	}
	cn.idleAt = time.Now()
	c.mu.Lock()
	held := !c.closed && len(c.idle) < maxOpenRuns
	if held {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !held {
		cn.Close()
	}
}

// send runs op o on cn with body, reads the reply body into body's own
// array, and then pools cn or closes it. It resends at most once, on a
// fresh connection, and only a request that went out on a reused
// connection and failed before the first reply byte: that is how a
// connection the daemon closed while it sat idle (a restart, Shutdown,
// Shard.Close) shows itself, since nothing watches a held connection. No
// reply byte means body is still intact. A failure after a reply began, on
// a fresh connection, or once ctx has ended is returned as it is. DESIGN.md
// §7.3 says why no op can apply twice under this rule.
func (c *HTTPClient) send(ctx context.Context, cn *httpConn, reused bool, o op, contentType string, body []byte) (int, []byte, error) {
	c.wrap(ctx, cn, o, contentType, body)
	status, reply, replied, reusable, err := cn.exchange(ctx, body[:0])
	if err != nil && !replied && reused && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		next, derr := c.connect(ctx)
		cn.Close()
		if derr != nil {
			return 0, reply, derr
		}
		cn = next
		c.wrap(ctx, cn, o, contentType, body)
		status, reply, _, reusable, err = cn.exchange(ctx, body[:0])
	}
	if reusable {
		c.put(cn)
	} else {
		cn.Close()
	}
	return status, reply, err
}

// exchange writes the request in cn.wbuf and reads the reply to its end,
// appending the body to dst (only its first maxErrorBody bytes when the
// status is not 200). A 101 ends the reply at its head: the connection
// speaks frames from the next byte. ctx's deadline is the connection's,
// and ctx's cancellation expires the connection at once. replied reports
// whether any reply byte arrived, reusable whether the connection may carry
// another request: not after a failure, a cancellation, or a reply that
// ends it.
func (cn *httpConn) exchange(ctx context.Context, dst []byte) (status int, body []byte, replied, reusable bool, err error) {
	deadline, _ := ctx.Deadline()
	cn.SetDeadline(deadline)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, cn.expire)
		defer func() {
			if !stop() {
				reusable = false
			}
		}()
	}
	if _, err = cn.Write(cn.wbuf); err != nil {
		return 0, dst, false, false, err
	}
	if _, err = cn.br.Peek(1); err != nil {
		return 0, dst, false, false, err
	}
	if cn.framed {
		status, body, err = cn.readFrameReply(dst)
		return status, body, true, err == nil, err
	}
	resp, err := cn.readResponse()
	if err != nil {
		return 0, dst, true, false, err
	}
	if resp.StatusCode == http.StatusSwitchingProtocols {
		return resp.StatusCode, dst, true, true, nil
	}
	keep := int64(math.MaxInt64)
	if resp.StatusCode != http.StatusOK {
		keep = maxErrorBody
	}
	body, err = readBody(io.LimitReader(resp.Body, keep), dst)
	// Close reads the rest of the body, so the next reply starts in place.
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, body, true, err == nil && !resp.Close, err
}

// errLongHead reports a reply head past maxReplyHead.
var errLongHead = errors.New("shard: reply head too long")

// readResponse reads a reply's status line and header under maxReplyHead,
// skipping interim (1xx) replies other than 101, which ends an upgrade's.
func (cn *httpConn) readResponse() (*http.Response, error) {
	cn.head.N = maxReplyHead
	defer func() { cn.head.N = math.MaxInt64 }()
	for {
		resp, err := http.ReadResponse(cn.br, nil)
		if err != nil {
			if cn.head.N <= 0 {
				err = errLongHead
			}
			return nil, err
		}
		if resp.StatusCode >= http.StatusOK || resp.StatusCode == http.StatusSwitchingProtocols {
			return resp, nil
		}
	}
}

// take reads the next n bytes of br, appending them to dst while it holds
// fewer than keep and discarding the rest. dst grows as bytes arrive, never
// ahead of them.
func take(br *bufio.Reader, dst []byte, n int64, keep int) ([]byte, error) {
	for n > 0 && len(dst) < keep {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):min(cap(dst), keep)]
		if int64(len(room)) > n {
			room = room[:n]
		}
		r, err := br.Read(room)
		dst, n = dst[:len(dst)+r], n-int64(r)
		if err != nil {
			return dst, err
		}
	}
	for n > 0 {
		d, err := br.Discard(int(min(n, 64<<10)))
		n -= int64(d)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// unexpectedEOF is err, except that a connection ending mid-reply is
// io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
