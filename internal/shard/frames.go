// Framed transport for the shard protocol. A coordinator's HTTPClient asks
// each connection it dials to upgrade (GET /shard/frames, Connection:
// Upgrade, Upgrade: adshard-frames/1); a daemon that can take the
// connection over answers 101 and from then on reads one frame per op and
// writes one frame per reply, from one loop per connection, with no
// http.Request, header map, ResponseWriter or background read per op:
//
//	request: [u32 length][u8 op][trace context][body]
//	reply:   [u32 length][u16 status][body]
//
// Lengths are big-endian and count the bytes after themselves. op is the
// op's opTable index. The trace context is what obs.Inject writes as
// headers — [uvarint n][trace id][uvarint n][parent span id][u8 flags] —
// and body is exactly the HTTP body of the same op: the binary codec of
// wire.go for the six run ops, JSON for the rest, {"error": …} under a
// non-200 status. The op handlers (opHandler) are the HTTP routes' own, so
// no op is written twice. A frame that does not parse, names no op, or
// declares a body past its op's limit closes the connection.
//
// The daemon grants the upgrade only when its ResponseWriter can hijack
// the connection (http.ResponseController), so a wrapper without Hijack or
// Unwrap — or an older daemon, which answers 404 — keeps that client on
// HTTP. Shard.Close ends the upgraded connections, which the http.Server
// no longer tracks.

package shard

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	// framesPath is the route a connection is upgraded on.
	framesPath = "/shard/frames"
	// framesProtocol is the Upgrade token of this frame layout.
	framesProtocol = "adshard-frames/1"
	// maxTraceField caps a trace or span id in a frame's trace context; a
	// client leaves a longer one out, as it leaves out an unprintable one.
	maxTraceField = 256
	// maxTraceContext is the largest trace context: two capped fields with
	// their two-byte lengths, and the flags.
	maxTraceContext = 2*(2+maxTraceField) + 1
	// frameMethod is the method a framed op reports in its span and log
	// line, where an HTTP request reports its own.
	frameMethod = "FRAME"
)

// switchingProtocols is the daemon's whole answer to an upgrade it grants.
const switchingProtocols = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + framesProtocol + "\r\n\r\n"

// errBadFrame reports a reply frame too short to hold its status.
var errBadFrame = errors.New("shard: malformed frame reply")

// appendUpgrade appends the upgrade request to b.
func (c *HTTPClient) appendUpgrade(b []byte) []byte {
	b = append(b, "GET "...)
	b = append(b, c.frames...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = appendHeader(b, "Host", c.host)
	b = appendHeader(b, "Connection", "Upgrade")
	b = appendHeader(b, "Upgrade", framesProtocol)
	return append(b, "\r\n"...)
}

// appendFrame appends op o's request frame to b: its length, the op, ctx's
// trace context (obs.Outgoing) and body.
func appendFrame(ctx context.Context, b []byte, o op, body []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, byte(o))
	sc := obs.Outgoing(ctx)
	b = appendTraceField(b, sc.TraceID)
	b = appendTraceField(b, sc.SpanID)
	b = append(b, sc.Flags)
	b = append(b, body...)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendTraceField appends one trace-context id with its length; an id
// past maxTraceField or holding a control character goes as empty, since
// trace propagation never fails an RPC.
func appendTraceField(b []byte, id string) []byte {
	if len(id) > maxTraceField || !printable(id) {
		id = ""
	}
	b = binary.AppendUvarint(b, uint64(len(id)))
	return append(b, id...)
}

// readFrameReply reads one reply frame, appending its body to dst (only its
// first maxErrorBody bytes when the status is not 200).
func (cn *httpConn) readFrameReply(dst []byte) (int, []byte, error) {
	head, err := cn.br.Peek(6)
	if err != nil {
		return 0, dst, unexpectedEOF(err)
	}
	n, status := binary.BigEndian.Uint32(head), int(binary.BigEndian.Uint16(head[4:]))
	if n < 2 {
		return 0, dst, errBadFrame
	}
	cn.br.Discard(6)
	keep := math.MaxInt
	if status != http.StatusOK {
		keep = maxErrorBody
	}
	dst, err = take(cn.br, dst, int64(n)-2, keep)
	return status, dst, unexpectedEOF(err)
}

// frameServer answers the framed ops of one shard's upgraded connections:
// the op handlers its Handler routes to, each op's meters resolved once —
// the endpoint label, span name and counters obs.Instrument would look up
// per request — and the Logf the Handler was built with.
type frameServer struct {
	s      *Shard
	ops    [numOps]opHandler
	meters [numOps]frameMeter
	logf   func(format string, args ...any)
}

// frameMeter is one op's resolved metering.
type frameMeter struct {
	endpoint, span, path string
	ok                   *obs.Counter // requests answered 200
	latency              *obs.Histogram
}

// newFrameServer resolves the meters of ops against the shard's HTTP
// metrics, tracer and Logf, under the labels its HTTP routes get.
func (s *Shard) newFrameServer(ops [numOps]opHandler) *frameServer {
	fs := &frameServer{s: s, ops: ops, logf: s.Logf}
	for o, row := range opTable {
		ep := shardEndpoint(row.path)
		fs.meters[o] = frameMeter{
			endpoint: ep,
			span:     "http." + ep,
			path:     row.path,
			ok:       s.httpMetrics.Requests.With(ep, "200"),
			latency:  s.httpMetrics.Latency.With(ep),
		}
	}
	return fs
}

// upgrade answers GET /shard/frames: 101 and the frame loop when the
// connection can be taken over, a JSON error otherwise — 400 for a request
// that asks for no upgrade, 501 when the ResponseWriter cannot hijack, 503
// once the shard is closed.
func (fs *frameServer) upgrade(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !hasToken(r.Header.Get("Connection"), "upgrade") || !strings.EqualFold(r.Header.Get("Upgrade"), framesProtocol) {
		shardWriteJSON(w, http.StatusBadRequest, shardErrorBody{Error: "upgrade with GET, Connection: Upgrade and Upgrade: " + framesProtocol})
		return
	}
	if fs.s.frames.isClosed() {
		shardWriteJSON(w, http.StatusServiceUnavailable, shardErrorBody{Error: "shard closed: no new framed connections"})
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		shardWriteJSON(w, http.StatusNotImplemented, shardErrorBody{Error: "this daemon cannot hand over connections: " + err.Error()})
		return
	}
	if !fs.s.frames.add(conn) {
		conn.Close()
		return
	}
	defer fs.s.frames.remove(conn)
	var readTimeout, writeTimeout time.Duration
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		readTimeout, writeTimeout = srv.ReadHeaderTimeout, srv.WriteTimeout
		if readTimeout == 0 {
			readTimeout = srv.ReadTimeout
		}
	}
	// The server's deadlines for the upgrade request are the caller's to
	// clear once the connection is hijacked.
	conn.SetDeadline(deadline(writeTimeout))
	if _, err := io.WriteString(conn, switchingProtocols); err != nil {
		conn.Close()
		return
	}
	fs.serve(conn, brw.Reader, readTimeout, writeTimeout)
}

// deadline is now+d, or no deadline when d is 0.
func deadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// hasToken reports whether the comma-separated header value v lists token,
// ignoring ASCII case.
func hasToken(v, token string) bool {
	for _, t := range strings.Split(v, ",") {
		if strings.EqualFold(strings.TrimSpace(t), token) {
			return true
		}
	}
	return false
}

// serve answers frames on conn until the client closes it, a frame is
// malformed, a read or write fails, or the shard closes. Between frames the
// connection waits without a deadline, as an idle keep-alive one does.
func (fs *frameServer) serve(conn net.Conn, br *bufio.Reader, readTimeout, writeTimeout time.Duration) {
	defer conn.Close()
	conn.SetReadDeadline(time.Time{})
	for {
		if _, err := br.Peek(1); err != nil || !fs.s.frames.busy(conn) {
			return
		}
		if !fs.frame(conn, br, readTimeout, writeTimeout) || !fs.s.frames.idle(conn) {
			return
		}
	}
}

// frame reads one frame whose first byte has arrived and writes its reply,
// reporting whether the connection may carry another. The rest of the frame
// must arrive within readTimeout and the reply leave within writeTimeout
// (0 = unbounded): the daemon's ReadHeaderTimeout and WriteTimeout. Request
// and reply share one pooled buffer, held for this frame only, so an idle
// connection pins none.
func (fs *frameServer) frame(conn net.Conn, br *bufio.Reader, readTimeout, writeTimeout time.Duration) bool {
	bp := bodyBufs.Get().(*[]byte)
	buf := *bp
	defer func() { putBodyBuf(bp, buf) }()
	if readTimeout > 0 {
		conn.SetReadDeadline(deadline(readTimeout))
	}
	o, sc, body, ok := fs.readFrame(br, &buf)
	if !ok {
		return false
	}
	if readTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	buf = fs.answer(o, sc, body, buf)
	if writeTimeout > 0 {
		conn.SetWriteDeadline(deadline(writeTimeout))
	}
	_, err := conn.Write(buf)
	return err == nil
}

// readFrame reads one request frame into *buf, growing it as the bytes
// arrive, and returns its op, trace context and body. ok is false when the
// frame is malformed — too short, no such op, a trace context that does not
// parse, a body past the op's limit — or the connection failed. A declared length
// past the op's limit is refused before any of the body is read.
func (fs *frameServer) readFrame(br *bufio.Reader, buf *[]byte) (o op, sc obs.SpanContext, body []byte, ok bool) {
	head, err := br.Peek(5)
	if err != nil {
		return 0, sc, nil, false
	}
	n, o := int64(binary.BigEndian.Uint32(head)), op(head[4])
	br.Discard(5)
	if o >= numOps || n < 1+3 || n > 1+maxTraceContext+fs.ops[o].limit {
		return 0, sc, nil, false
	}
	b, err := take(br, (*buf)[:0], n-1, math.MaxInt)
	*buf = b
	if err != nil {
		return 0, sc, nil, false
	}
	sc, body, ok = parseTraceContext(b)
	if !ok || int64(len(body)) > fs.ops[o].limit {
		return 0, sc, nil, false
	}
	return o, sc, body, true
}

// parseTraceContext splits a frame's trace context off b, returning it and
// the body behind it; ok is false when it does not parse or an id is
// longer than maxTraceField or unprintable.
func parseTraceContext(b []byte) (sc obs.SpanContext, body []byte, ok bool) {
	var ids [2]string
	for i := range ids {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > maxTraceField || n > uint64(len(b)-k) {
			return sc, nil, false
		}
		ids[i] = string(b[k : k+int(n)])
		if !printable(ids[i]) {
			return sc, nil, false
		}
		b = b[k+int(n):]
	}
	if len(b) == 0 {
		return sc, nil, false
	}
	return obs.SpanContext{TraceID: ids[0], SpanID: ids[1], Flags: b[0]}, b[1:], true
}

// answer runs op o on body and returns the whole reply frame, written over
// buf (grown when the reply needed more room). It meters the op as obs.Instrument
// meters a request: the endpoint's request count and latency, a server span
// adopting the frame's remote parent, and the Logf line.
func (fs *frameServer) answer(o op, sc obs.SpanContext, body, buf []byte) []byte {
	m := &fs.meters[o]
	start := time.Now()
	var span *obs.Span
	if fs.s.tracer != nil {
		ctx := context.Background()
		if sc.SpanID != "" || sc.Flags != 0 {
			ctx = obs.WithRemote(ctx, sc)
		} else if sc.TraceID != "" {
			ctx = obs.WithTrace(ctx, sc.TraceID)
		}
		_, span = fs.s.tracer.StartSpan(ctx, m.span)
		span.SetStr("method", frameMethod)
		span.SetStr("path", m.path)
	}
	// The reply's head goes in front of its body, over the request's own
	// bytes, which the op has decoded by the time it writes any.
	if cap(buf) < 6 {
		buf = make([]byte, 0, 64)
	}
	status, reply := fs.ops[o].serve(body, buf[:6])
	binary.BigEndian.PutUint32(reply, uint32(len(reply)-4))
	binary.BigEndian.PutUint16(reply[4:], uint16(status))
	seconds := time.Since(start).Seconds()
	code := "200"
	if status == http.StatusOK {
		m.ok.Inc()
	} else {
		code = strconv.Itoa(status)
		fs.s.httpMetrics.Requests.With(m.endpoint, code).Inc()
	}
	m.latency.Observe(seconds)
	if span != nil {
		span.SetInt("status", int64(status))
		if status >= http.StatusInternalServerError {
			span.SetError("http " + code)
		}
		span.End()
	}
	if fs.logf != nil {
		trace := sc.TraceID
		if span != nil {
			trace = span.TraceID()
		} else if trace == "" {
			trace = obs.NewTraceID()
		}
		fs.logf("component=adshard trace=%s method=%s path=%s status=%d durMs=%.3f",
			trace, frameMethod, m.path, status, seconds*1e3)
	}
	if hook := fs.s.frameHook; hook != nil {
		hook(len(body), len(reply)-6)
	}
	return reply
}

// frameConns tracks a shard's upgraded connections, so that Close can end
// them: the http.Server stops tracking a connection once it is hijacked.
// A connection is busy from its frame's first byte until its reply is
// written, idle otherwise.
type frameConns struct {
	mu     sync.Mutex
	closed bool
	busyOf map[net.Conn]bool
	wg     sync.WaitGroup
}

// add registers an upgraded connection; false once the shard is closed.
func (fc *frameConns) add(c net.Conn) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		return false
	}
	if fc.busyOf == nil {
		fc.busyOf = map[net.Conn]bool{}
	}
	fc.busyOf[c] = false
	fc.wg.Add(1)
	return true
}

// remove forgets a connection whose loop has ended.
func (fc *frameConns) remove(c net.Conn) {
	fc.mu.Lock()
	delete(fc.busyOf, c)
	fc.mu.Unlock()
	fc.wg.Done()
}

// busy marks c as answering a frame; false once the shard is closed, when
// the frame goes unanswered and the connection closes.
func (fc *frameConns) busy(c net.Conn) bool { return fc.mark(c, true) }

// idle marks c as between frames; false once the shard is closed, when the
// connection closes.
func (fc *frameConns) idle(c net.Conn) bool { return fc.mark(c, false) }

func (fc *frameConns) mark(c net.Conn, busy bool) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.busyOf[c] = busy
	return !fc.closed
}

// isClosed reports whether Close has run.
func (fc *frameConns) isClosed() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.closed
}

// open counts the upgraded connections (the adshard_frame_connections
// gauge).
func (fc *frameConns) open() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.busyOf)
}

// Close ends the shard's upgraded connections and refuses new upgrades: an
// idle connection closes at once, one answering a frame once its reply is
// written, and Close returns when every frame loop has. A coordinator whose
// held connection was closed sends its next op again on a fresh dial (the
// resend rule), which no longer upgrades. HTTP requests are the
// http.Server's to finish: cmd/adshard calls Close from its Shutdown hook.
// Safe to call more than once.
func (s *Shard) Close() {
	fc := &s.frames
	fc.mu.Lock()
	fc.closed = true
	for c, busy := range fc.busyOf {
		if !busy {
			c.Close()
		}
	}
	fc.mu.Unlock()
	fc.wg.Wait()
}
