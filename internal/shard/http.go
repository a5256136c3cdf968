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
// every route. The daemon serves with net/http; the coordinator's client
// (HTTPClient) writes and reads HTTP/1.1 itself on connections it holds.

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
//	POST /shard/estimates — SyncEstimatesRequest → {}
//	POST /shard/drain   — {} (refuse new runs from now on)
//	GET  /metrics       — Prometheus text exposition
//
// Every route is wrapped in the obs middleware: per-endpoint request
// metrics, X-Trace-Id extraction/echo (so a coordinator's trace id ties
// its RPC fan-out together in the logs of every daemon), and — when
// Shard.Logf is set — one structured key=value log line per request.
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.tracer.Handler())
	mux.Handle("/debug/traces/", s.tracer.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc(opTable[opInfo].path, func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, s.Info())
	})
	mux.HandleFunc(opTable[opPilot].path, route(s.Pilot))
	mux.HandleFunc(opTable[opEnsure].path, route(s.Ensure))
	mux.HandleFunc(opTable[opStart].path, route(s.Start))
	mux.HandleFunc(opTable[opCommit].path, route(s.Commit))
	mux.HandleFunc(opTable[opCredit].path, route(s.Credit))
	mux.HandleFunc(opTable[opGrow].path, route(s.Grow))
	mux.HandleFunc(opTable[opGains].path, route(s.Gains))
	mux.HandleFunc(opTable[opEnd].path, route(func(req endRequest) (struct{}, error) {
		s.End(req.RunID)
		return struct{}{}, nil
	}))
	mux.HandleFunc(opTable[opAddAd].path, route(s.AddAd))
	mux.HandleFunc(opTable[opRemoveAd].path, route(s.RemoveAd))
	mux.HandleFunc(opTable[opSyncEstimates].path, route(func(req SyncEstimatesRequest) (struct{}, error) {
		return struct{}{}, s.SyncEstimates(req)
	}))
	mux.HandleFunc(drainPath, route(func(req struct{}) (struct{}, error) {
		s.Drain()
		return struct{}{}, nil
	}))
	return obs.Instrument(mux, s.httpMetrics, obs.InstrumentOptions{
		Component: "adshard",
		Logf:      s.Logf,
		// RPC routes all share the "shard" first path segment; label by the
		// whole route so per-operation latency stays visible.
		Endpoint: shardEndpoint,
		Tracer:   s.tracer,
	})
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
// lifecycle request is at most an estimator snapshot (cells per ad and
// bucket) or an ad spec.
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
// buffer. Reading a request body to EOF is also what lets net/http's
// server reuse the connection.
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

// route adapts one shard operation into a POST handler. Its format follows
// from the request type by the rule HTTPClient.do applies on the other end:
// a run op — one whose request is a wireMessage — speaks the binary codec of
// wire.go, every other op JSON. The body is read whole into a pooled buffer,
// and a binary reply is appended into the same buffer and written with its
// Content-Length. Errors keep one JSON body and status mapping on every
// route.
func route[Req, Reply any](fn func(Req) (Reply, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			shardWriteJSON(w, http.StatusMethodNotAllowed, shardErrorBody{Error: "use POST"})
			return
		}
		var req Req
		m, wire := any(&req).(wireMessage)
		limit := int64(maxLifecycleBody)
		if wire {
			limit = maxRunBody
		}
		bp := bodyBufs.Get().(*[]byte)
		buf, err := readBody(http.MaxBytesReader(w, r.Body, limit), *bp)
		defer func() { putBodyBuf(bp, buf) }()
		switch {
		case err != nil:
		case wire:
			err = m.decodeWire(buf)
		default:
			err = json.NewDecoder(bytes.NewReader(buf)).Decode(&req)
		}
		if err != nil {
			msg := fmt.Sprintf("bad request body: %v", err)
			if wire && len(buf) > 0 && buf[0] == '{' {
				// No negotiation: a mixed-version cluster fails here, on its
				// first pilot, and should be told why.
				msg += " (this route speaks the binary run-op codec, not JSON: coordinator and shard must be the same version)"
			}
			shardWriteJSON(w, http.StatusBadRequest, shardErrorBody{Error: msg})
			return
		}
		reply, err := fn(req)
		if err != nil {
			shardWriteJSON(w, statusOf(err), shardErrorBody{Error: err.Error()})
			return
		}
		if !wire {
			shardWriteJSON(w, http.StatusOK, reply)
			return
		}
		buf = any(&reply).(wireMessage).appendWire(buf[:0])
		w.Header().Set("Content-Type", wireContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.Write(buf)
	}
}

// wireContentType labels a binary run-op body.
const wireContentType = "application/octet-stream"

func shardWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// drainPath is the one /shard/ route that is not a Client op (those are in
// opTable): an operator action.
const drainPath = "/shard/drain"

// HTTPClient speaks the shard protocol to a remote shard daemon. It is an
// HTTP/1.1 client of its own: an RPC takes a held connection (or dials
// one), writes its whole request with one Write and reads the reply on the
// caller's goroutine, so a call hands nothing to another goroutine and
// builds no request, header or body-reader values. Shard daemons are
// dialled directly; no proxy is consulted.
type HTTPClient struct {
	typedClient // every op through roundTrip

	// base is the daemon's "scheme://host" (for messages), addr its dial
	// address, host its Host header, and paths each op's request target
	// (drain the drain route's), all fixed at construction.
	base, addr, host string
	paths            [numOps]string
	drain            string
	// tls marks an https:// daemon, dialled under tlsConfig; nil is the
	// default configuration, which trusts the system roots.
	tls       bool
	tlsConfig *tls.Config
	// addrErr is why the address did not parse; every call returns it.
	addrErr error

	mu sync.Mutex
	// idle holds the connections no call is using, the most recently used
	// last. One client talks to one daemon, and a daemon holds at most
	// maxOpenRuns runs, each issuing its RPCs one at a time — so that many
	// is what full load keeps busy, and what the pool keeps.
	idle []*httpConn
}

const (
	// maxIdleTime is how long a held connection may sit idle; a checkout
	// closes an older one instead of using it.
	maxIdleTime = 90 * time.Second
	// maxErrorBody is how much of an error reply's body is kept.
	maxErrorBody = 16 << 10
)

// NewHTTPClient creates a client for a shard daemon at addr
// ("host:port" or a full http:// or https:// base URL). An RPC is bounded
// only by its caller's context: the retry layer (NewRetryClient) sets a
// per-attempt, per-op deadline on every call a coordinator makes.
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
	c.drain = prefix + drainPath
	return c
}

// roundTrip sends one op: GET for info, the binary codec of wire.go when
// the request is a wireMessage (the rule route applies on the daemon), JSON
// otherwise.
func (c *HTTPClient) roundTrip(ctx context.Context, o op, req, reply any) error {
	return c.do(ctx, c.paths[o], req, reply)
}

// Drain asks the daemon to refuse new runs (not part of the coordinator's
// Client surface — an operator action).
func (c *HTTPClient) Drain(ctx context.Context) error {
	return c.do(ctx, c.drain, struct{}{}, nil)
}

// do sends one request to path with in as its body — a GET with none when
// in is nil (the info route), a POST otherwise — and decodes the reply body
// into out in the format in was sent in; a nil out is not decoded. The body
// is encoded into a pooled buffer and copied behind the request head; the
// reply is then read into the same buffer and decoded from it.
func (c *HTTPClient) do(ctx context.Context, path string, in, out any) error {
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
		return c.fail(ctx, path, err)
	}
	cn.wbuf = c.appendRequest(ctx, cn.wbuf[:0], path, contentType, buf)
	status, buf, err := c.send(ctx, cn, reused, buf[:0])
	if err != nil {
		return c.fail(ctx, path, err)
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
	for i := 0; i < len(value); i++ {
		if ch := value[i]; ch < ' ' && ch != '\t' || ch == 0x7f {
			return b
		}
	}
	b = append(b, key...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

// fail names the route an exchange failed on. Once ctx is done, or the
// deadline it set on the connection has passed, the error is ctx's, so
// Classify buckets it as a timeout (retryable) or a cancellation
// (terminal) whatever the connection reported.
func (c *HTTPClient) fail(ctx context.Context, path string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("shard: %s%s: %w", c.base, path, err)
}

// httpConn is one held connection: its reader, the buffer its requests
// are assembled in, and when it last went idle.
type httpConn struct {
	net.Conn
	br     *bufio.Reader
	wbuf   []byte
	idleAt time.Time
	// expire sets a deadline in the past, failing any read or write in
	// flight; context.AfterFunc runs it when a call's ctx is cancelled.
	expire func()
}

// conn checks out the most recently used idle connection, or dials one when
// none is idle; reused reports which. The pool is LIFO, so when its top
// connection has idled past maxIdleTime every one under it has too, and
// all of them are closed.
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
	cn, err = c.dial(ctx)
	return cn, false, err
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
	return &httpConn{Conn: nc, br: bufio.NewReader(nc), expire: func() { nc.SetDeadline(past) }}, nil
}

// put returns a connection whose last exchange completed to the pool, or
// closes it when the pool already holds maxOpenRuns. As with bodyBufs, an
// outsized request does not pin its buffer for the connection's life.
func (c *HTTPClient) put(cn *httpConn) {
	if cap(cn.wbuf) > maxPooledBody {
		cn.wbuf = nil
	}
	cn.idleAt = time.Now()
	c.mu.Lock()
	held := len(c.idle) < maxOpenRuns
	if held {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !held {
		cn.Close()
	}
}

// send runs the request in cn's buffer, reads the reply body into dst, and
// then pools cn or closes it. It resends at most once, on a fresh dial, and
// only a request that went out on a reused connection and failed before the
// first reply byte: that is how a connection the daemon closed while it sat
// idle (a restart, Shutdown) shows itself, since nothing watches a held
// connection. A failure after a reply began, on a fresh connection, or once
// ctx has ended is returned as it is. DESIGN.md §7.3 says why no op can
// apply twice under this rule.
func (c *HTTPClient) send(ctx context.Context, cn *httpConn, reused bool, dst []byte) (int, []byte, error) {
	status, body, replied, reusable, err := cn.exchange(ctx, dst)
	if err != nil && !replied && reused && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		next, derr := c.dial(ctx)
		if derr != nil {
			cn.Close()
			return 0, body, derr
		}
		// The request moves to the fresh connection with its buffer.
		next.wbuf, cn.wbuf = cn.wbuf, next.wbuf
		cn.Close()
		cn = next
		status, body, _, reusable, err = cn.exchange(ctx, dst)
	}
	if reusable {
		c.put(cn)
	} else {
		cn.Close()
	}
	return status, body, err
}

// exchange writes the request in cn.wbuf and reads the reply to its end,
// appending the body to dst (only its first maxErrorBody bytes when the
// status is not 200). ctx's deadline is the connection's, and ctx's
// cancellation expires the connection at once. replied reports whether any
// reply byte arrived, reusable whether the connection may carry another
// request: not after a failure, a cancellation, or a reply that ends it.
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
	h, err := cn.readHead()
	if err != nil {
		return 0, dst, true, false, err
	}
	keep := math.MaxInt
	if h.status != http.StatusOK {
		keep = maxErrorBody
	}
	body, err = cn.readBody(h, dst, keep)
	return h.status, body, true, err == nil && !h.close, err
}

// replyHead is what a reply's status line and header say about it.
type replyHead struct {
	status int
	// length is the body's Content-Length, -1 when the header gives none.
	length  int64
	chunked bool
	// close says the connection ends with this reply: the daemon said so,
	// spoke HTTP/1.0, or framed the body by closing the connection.
	close bool
}

// errMalformed reports a reply this client cannot read as HTTP/1.x.
var errMalformed = errors.New("shard: malformed HTTP reply")

// readHead reads a reply's status line and header, skipping interim (1xx)
// replies. Only the framing headers are read; the others are skipped.
func (cn *httpConn) readHead() (replyHead, error) {
	for {
		line, err := cn.line()
		if err != nil {
			return replyHead{}, err
		}
		// "HTTP/1.x NNN reason"
		if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
			return replyHead{}, errMalformed
		}
		status, ok := parseUint(line[9:12], 10)
		if !ok {
			return replyHead{}, errMalformed
		}
		h := replyHead{status: int(status), length: -1, close: line[7] == '0'}
		for {
			if line, err = cn.line(); err != nil {
				return h, err
			}
			if len(line) == 0 {
				break
			}
			i := bytes.IndexByte(line, ':')
			if i < 0 {
				return h, errMalformed
			}
			name, value := line[:i], bytes.TrimSpace(line[i+1:])
			switch {
			case headerIs(name, "Content-Length"):
				if h.length, ok = parseUint(value, 10); !ok {
					return h, errMalformed
				}
			case headerIs(name, "Transfer-Encoding"):
				if !headerIs(value, "chunked") {
					return h, errMalformed
				}
				h.chunked = true
			case headerIs(name, "Connection"):
				h.close = h.close || headerIs(value, "close")
			}
		}
		if h.status < 200 {
			continue
		}
		if h.status == http.StatusNoContent || h.status == http.StatusNotModified {
			h.length, h.chunked = 0, false
		}
		h.close = h.close || !h.chunked && h.length < 0
		return h, nil
	}
}

// readBody reads the body h frames to its end, appending up to keep bytes
// of it to dst and discarding the rest.
func (cn *httpConn) readBody(h replyHead, dst []byte, keep int) ([]byte, error) {
	switch {
	case h.length >= 0 && !h.chunked:
		dst, err := cn.take(dst, h.length, keep)
		return dst, unexpectedEOF(err)
	case !h.chunked:
		// No length: the body ends with the connection.
		dst, err := cn.take(dst, math.MaxInt64, keep)
		if err == io.EOF {
			err = nil
		}
		return dst, err
	}
	for {
		line, err := cn.line()
		if err != nil {
			return dst, err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i] // a chunk extension
		}
		size, ok := parseUint(bytes.TrimSpace(line), 16)
		if !ok {
			return dst, errMalformed
		}
		if size == 0 {
			break
		}
		if dst, err = cn.take(dst, size, keep); err != nil {
			return dst, unexpectedEOF(err)
		}
		if line, err = cn.line(); err != nil {
			return dst, err
		}
		if len(line) != 0 {
			return dst, errMalformed
		}
	}
	for { // the trailer, up to its empty line
		line, err := cn.line()
		if err != nil || len(line) == 0 {
			return dst, err
		}
	}
}

// take reads the next n body bytes, appending them to dst while it holds
// fewer than keep and discarding the rest. It returns io.EOF if the
// connection ends first.
func (cn *httpConn) take(dst []byte, n int64, keep int) ([]byte, error) {
	for n > 0 && len(dst) < keep {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):min(cap(dst), keep)]
		if int64(len(room)) > n {
			room = room[:n]
		}
		r, err := cn.br.Read(room)
		dst, n = dst[:len(dst)+r], n-int64(r)
		if err != nil {
			return dst, err
		}
	}
	for n > 0 {
		d, err := cn.br.Discard(int(min(n, 64<<10)))
		n -= int64(d)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// line reads one header or chunk line without its line ending. It aliases
// the reader's buffer until the next read.
func (cn *httpConn) line() ([]byte, error) {
	line, err := cn.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errMalformed
	}
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// unexpectedEOF is err, except that a connection ending mid-reply is
// io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// headerIs reports whether b is s, ignoring ASCII case.
func headerIs(b []byte, s string) bool {
	return len(b) == len(s) && strings.EqualFold(string(b), s)
}

// parseUint parses a status code or a Content-Length (base 10) or a chunk
// size (base 16) into an int64.
func parseUint(b []byte, base int) (int64, bool) {
	n, err := strconv.ParseUint(string(b), base, 63)
	return int64(n), err == nil
}
