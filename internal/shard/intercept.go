// One body per client. Every Client in this package but LocalClient is a
// roundTrip over the op — HTTPClient picks the route's format, ReplicaSet
// the op's replica rule, intercepted hands the call to a decorator — and
// typedClient writes the eleven typed Client methods once over it. call
// dispatches one op to any Client: straight through when the client has a
// roundTrip, through its typed method when it does not (LocalClient, a test
// fake, a client from outside the package). A decorator that treats every
// op alike — metering (InstrumentClient), deadlines and retries
// (NewRetryClient), fault injection (NewFaultClient) — is a function around
// the call, not eleven methods: it supplies `around` and intercepted does
// the forwarding.

package shard

import "context"

// roundTripper is a Client written as one body over the op. req points at
// the op's request type (nil for info, *endRequest for end) and reply at its
// reply type; reply is nil for the op without one (end) and
// whenever the caller discards it, as a replay does. The request is not
// written after the call: a ReplicaSet logs a mutation's pointer for revives.
// A Start, Commit/Credit or Grow reply is the caller's to keep across its
// run's calls: every client fills its slices in place — HTTPClient decodes
// into them, call copies a typed method's value into them — so the reply
// never aliases memory a shard recycles, and steady calls allocate nothing.
type roundTripper interface {
	roundTrip(ctx context.Context, o op, req, reply any) error
}

// typedClient is Client written once over a roundTrip. HTTPClient,
// ReplicaSet and intercepted embed it, rt pointing back at themselves.
type typedClient struct{ rt roundTripper }

// exchange runs one typed op through rt. Request and reply share one heap
// object — roundTrip is a dynamic call, so both escape — and the reply is
// read only after the call has returned.
func exchange[Reply, Req any](ctx context.Context, rt roundTripper, o op, req Req) (Reply, error) {
	x := &struct {
		req   Req
		reply Reply
	}{req: req}
	err := rt.roundTrip(ctx, o, &x.req, &x.reply)
	return x.reply, err
}

func (c typedClient) Info(ctx context.Context) (info ShardInfo, err error) {
	err = c.rt.roundTrip(ctx, opInfo, nil, &info)
	return info, err
}
func (c typedClient) Pilot(ctx context.Context, req PilotRequest) (PilotReply, error) {
	return exchange[PilotReply](ctx, c.rt, opPilot, req)
}
func (c typedClient) Ensure(ctx context.Context, req EnsureRequest) (EnsureReply, error) {
	return exchange[EnsureReply](ctx, c.rt, opEnsure, req)
}
func (c typedClient) Start(ctx context.Context, req StartRequest) (StartReply, error) {
	return exchange[StartReply](ctx, c.rt, opStart, req)
}
func (c typedClient) Commit(ctx context.Context, req CommitRequest) (CommitReply, error) {
	return exchange[CommitReply](ctx, c.rt, opCommit, req)
}
func (c typedClient) Credit(ctx context.Context, req CreditRequest) (CommitReply, error) {
	return exchange[CommitReply](ctx, c.rt, opCredit, req)
}
func (c typedClient) Grow(ctx context.Context, req GrowRequest) (GrowReply, error) {
	return exchange[GrowReply](ctx, c.rt, opGrow, req)
}
func (c typedClient) Gains(ctx context.Context, req GainsRequest) (GainsReply, error) {
	return exchange[GainsReply](ctx, c.rt, opGains, req)
}
func (c typedClient) End(ctx context.Context, runID string) error {
	return c.rt.roundTrip(ctx, opEnd, &endRequest{RunID: runID}, nil)
}
func (c typedClient) AddAd(ctx context.Context, req AddAdRequest) (MutateReply, error) {
	return exchange[MutateReply](ctx, c.rt, opAddAd, req)
}
func (c typedClient) RemoveAd(ctx context.Context, req RemoveAdRequest) (MutateReply, error) {
	return exchange[MutateReply](ctx, c.rt, opRemoveAd, req)
}
func (typedClient) SyncEstimates(context.Context, SyncEstimatesRequest) error { return nil }

// call runs op o against cl, with req and reply as roundTrip takes them.
func call(ctx context.Context, cl Client, o op, req, reply any) error {
	if rt, ok := cl.(roundTripper); ok {
		return rt.roundTrip(ctx, o, req, reply)
	}
	switch o {
	case opInfo:
		v, err := cl.Info(ctx)
		return put(reply, v, err)
	case opPilot:
		v, err := cl.Pilot(ctx, *req.(*PilotRequest))
		return put(reply, v, err)
	case opEnsure:
		v, err := cl.Ensure(ctx, *req.(*EnsureRequest))
		return put(reply, v, err)
	case opStart:
		v, err := cl.Start(ctx, *req.(*StartRequest))
		return put(reply, v, err)
	case opCommit:
		v, err := cl.Commit(ctx, *req.(*CommitRequest))
		return put(reply, v, err)
	case opCredit:
		v, err := cl.Credit(ctx, *req.(*CreditRequest))
		return put(reply, v, err)
	case opGrow:
		v, err := cl.Grow(ctx, *req.(*GrowRequest))
		return put(reply, v, err)
	case opGains:
		v, err := cl.Gains(ctx, *req.(*GainsRequest))
		return put(reply, v, err)
	case opEnd:
		return cl.End(ctx, req.(*endRequest).RunID)
	case opAddAd:
		v, err := cl.AddAd(ctx, *req.(*AddAdRequest))
		return put(reply, v, err)
	default:
		v, err := cl.RemoveAd(ctx, *req.(*RemoveAdRequest))
		return put(reply, v, err)
	}
}

// put stores a typed call's reply where roundTrip's caller asked for it:
// into the buffers a filler reply already holds, by assignment otherwise.
func put[T any](reply any, v T, err error) error {
	if err == nil && reply != nil {
		if f, ok := reply.(filler[T]); ok {
			f.fill(v)
		} else {
			*reply.(*T) = v
		}
	}
	return err
}

// filler is a reply the caller keeps across its run's calls (see
// roundTripper): fill copies v into the reply's own buffers.
type filler[T any] interface{ fill(v T) }

func (m *StartReply) fill(v StartReply) {
	m.Cov = resized(m.Cov, len(v.Cov))
	for i, sc := range v.Cov {
		m.Cov[i] = copySparse(sc, m.Cov[i])
	}
	m.LocalSets = append(m.LocalSets[:0], v.LocalSets...)
	m.Kernels = append(m.Kernels[:0], v.Kernels...)
	m.Fresh = v.Fresh
}

func (m *CommitReply) fill(v CommitReply) {
	m.Covered, m.Delta = v.Covered, copySparse(v.Delta, m.Delta)
}

func (m *GrowReply) fill(v GrowReply) {
	m.Added, m.LocalSets, m.Fresh = copySparse(v.Added, m.Added), v.LocalSets, v.Fresh
}

// copySparse copies src into dst's backing arrays (grown as needed).
func copySparse(src, dst SparseCounts) SparseCounts {
	return SparseCounts{
		Nodes:  append(dst.Nodes[:0], src.Nodes...),
		Counts: append(dst.Counts[:0], src.Counts...),
	}
}

// rpcCall is one forwarded op as its interceptor sees it: invoke runs it
// against the next client, any number of times (a retry) or not at all (an
// injected fault). It travels by value, so forwarding costs no heap object.
type rpcCall struct {
	op         op
	next       Client
	req, reply any
}

func (rc rpcCall) invoke(ctx context.Context) error {
	return call(ctx, rc.next, rc.op, rc.req, rc.reply)
}

// intercepted forwards every op to next through around, which decides
// whether, how often and under what context the call is invoked.
type intercepted struct {
	typedClient
	next   Client
	around func(ctx context.Context, rc rpcCall) error
}

// wrap makes c forward to next through around.
func (c *intercepted) wrap(next Client, around func(ctx context.Context, rc rpcCall) error) {
	c.typedClient, c.next, c.around = typedClient{c}, next, around
}

func (c *intercepted) roundTrip(ctx context.Context, o op, req, reply any) error {
	return c.around(ctx, rpcCall{op: o, next: c.next, req: req, reply: reply})
}

var (
	_ Client       = LocalClient{}
	_ roundTripper = (*HTTPClient)(nil)
	_ roundTripper = (*ReplicaSet)(nil)
	_ roundTripper = (*intercepted)(nil)
	_ roundTripper = (*retryClient)(nil)
	_ roundTripper = (*FaultClient)(nil)
)
