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
// every route.

package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
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
// replies are built in. Decoders copy what they keep, so a buffer goes back
// as soon as its message is decoded or written.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// putBodyBuf returns a buffer no larger than maxPooledBody to the pool.
func putBodyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
}

// readBody appends r to buf until EOF — io.ReadAll over a caller-owned
// buffer. Reading an HTTP body to EOF is also what lets net/http reuse the
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

// HTTPClient speaks the shard protocol to a remote shard daemon.
type HTTPClient struct {
	typedClient // every op through roundTrip

	hc *http.Client
	// reqs holds one request per op, and drain the drain route's, their
	// URLs parsed once at construction; each call sends a shallow copy
	// (Request.WithContext).
	reqs  [numOps]*http.Request
	drain *http.Request
	// addrErr is why the address did not parse; every call returns it.
	addrErr error
}

// NewHTTPClient creates a client for a shard daemon at addr
// ("host:port" or a full http:// base URL). An RPC is bounded only by its
// caller's context: the retry layer (NewRetryClient) sets a per-attempt,
// per-op deadline on every call a coordinator makes.
func NewHTTPClient(addr string) *HTTPClient {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	c := &HTTPClient{hc: &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout: 10 * time.Second,
		IdleConnTimeout:     90 * time.Second,
		// One client talks to one daemon, and a daemon holds at most
		// maxOpenRuns runs, each issuing its RPCs one at a time — so that
		// many connections is what full load keeps busy. DefaultTransport's
		// 2 per host closes the rest after every round.
		MaxIdleConns:        maxOpenRuns,
		MaxIdleConnsPerHost: maxOpenRuns,
		// Run-op bodies are varints; there is nothing for gzip to win.
		DisableCompression: true,
	}}}
	c.typedClient = typedClient{c}
	base, err := url.Parse(addr)
	if err != nil {
		// The constructor has always been infallible; a malformed address
		// fails every call instead, starting with NewCoordinator's Info probe.
		c.addrErr = fmt.Errorf("shard: bad daemon address %q: %w", addr, err)
		return c
	}
	template := func(method, path string) *http.Request {
		u := *base
		u.Path, u.RawPath = strings.TrimRight(base.Path, "/")+path, ""
		return &http.Request{Method: method, URL: &u, Host: u.Host, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	}
	for o, row := range opTable {
		c.reqs[o] = template(http.MethodPost, row.path)
	}
	c.reqs[opInfo].Method = http.MethodGet
	c.drain = template(http.MethodPost, drainPath)
	return c
}

// roundTrip sends one op: GET for info, the binary codec of wire.go when
// the request is a wireMessage (the rule route applies on the daemon), JSON
// otherwise.
func (c *HTTPClient) roundTrip(ctx context.Context, o op, req, reply any) error {
	return c.do(ctx, c.reqs[o], req, reply)
}

// do sends one request, a copy of tmpl with in as its body (none when in is
// nil, the GET route), and decodes the reply body into out in the format in
// was sent in; a nil out is not decoded. The body is always read to EOF
// before Close — replies and error bodies alike — because that is what
// returns the connection to the idle pool; a reply large enough to be
// chunked otherwise costs a connection.
func (c *HTTPClient) do(ctx context.Context, tmpl *http.Request, in, out any) error {
	if c.addrErr != nil {
		return c.addrErr
	}
	req := tmpl.WithContext(ctx)
	req.Header = make(http.Header, 4)
	m, wire := in.(wireMessage)
	if in != nil {
		// A run op is encoded into a buffer of its own, not a pooled one:
		// net/http may still be writing a request body after Do returns
		// (cancellation, a reply sent early), so it cannot be recycled here.
		var body []byte
		contentType := wireContentType
		if wire {
			body = m.appendWire(make([]byte, 0, 64))
		} else {
			var err error
			if body, err = json.Marshal(in); err != nil {
				return err
			}
			contentType = "application/json"
		}
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		// GetBody lets the transport resend when an idle connection turns
		// out to have been closed by the daemon before anything was written.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb shardErrorBody
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
		io.Copy(io.Discard, resp.Body)
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			return errOf(resp.StatusCode, eb.Error)
		}
		return errOf(resp.StatusCode, string(msg))
	}
	bp := bodyBufs.Get().(*[]byte)
	reply, err := readBody(resp.Body, *bp)
	defer putBodyBuf(bp, reply)
	if err != nil || out == nil {
		return err
	}
	if wire {
		return out.(wireMessage).decodeWire(reply)
	}
	return json.Unmarshal(reply, out)
}

// Drain asks the daemon to refuse new runs (not part of the coordinator's
// Client surface — an operator action).
func (c *HTTPClient) Drain(ctx context.Context) error {
	return c.do(ctx, c.drain, struct{}{}, nil)
}
