// The one forwarding Client. A decorator that treats every op alike —
// metering (InstrumentClient), deadlines and retries (NewRetryClient), fault
// injection (NewFaultClient) — is a function around the call, not twelve
// methods: it supplies `around` and intercepted does the forwarding.

package shard

import "context"

// rpcCall is one forwarded RPC as its interceptor sees it: invoke runs it
// against the next client, any number of times (a retry) or not at all (an
// injected fault). An interface and not a func: around is called
// dynamically, so what it is handed lives on the heap, and a closure would
// be a second object beside the reply it captures.
type rpcCall interface {
	invoke(ctx context.Context) error
}

// intercepted forwards every Client method to next through around, which
// is told which op is in flight and decides whether, how often and under
// what context the call is invoked.
type intercepted struct {
	next   Client
	around func(ctx context.Context, o op, call rpcCall) error
}

// forwarded is the rpcCall of one Client method (method is its method
// expression): the request on its way down and the last invocation's reply
// on its way back, in the one heap object a forwarded RPC costs a layer.
type forwarded[Req, Reply any] struct {
	next   Client
	method func(Client, context.Context, Req) (Reply, error)
	req    Req
	out    Reply
}

func (f *forwarded[Req, Reply]) invoke(ctx context.Context) (err error) {
	f.out, err = f.method(f.next, ctx, f.req)
	return err
}

// forward runs one Client method through c.around.
func forward[Req, Reply any](ctx context.Context, c *intercepted, o op, method func(Client, context.Context, Req) (Reply, error), req Req) (Reply, error) {
	f := &forwarded[Req, Reply]{next: c.next, method: method, req: req}
	err := c.around(ctx, o, f)
	return f.out, err
}

// Info implements Client.
func (c *intercepted) Info(ctx context.Context) (ShardInfo, error) {
	return forward(ctx, c, opInfo, func(cl Client, ctx context.Context, _ struct{}) (ShardInfo, error) { return cl.Info(ctx) }, struct{}{})
}

// Pilot implements Client.
func (c *intercepted) Pilot(ctx context.Context, req PilotRequest) (PilotReply, error) {
	return forward(ctx, c, opPilot, Client.Pilot, req)
}

// Ensure implements Client.
func (c *intercepted) Ensure(ctx context.Context, req EnsureRequest) (EnsureReply, error) {
	return forward(ctx, c, opEnsure, Client.Ensure, req)
}

// Start implements Client.
func (c *intercepted) Start(ctx context.Context, req StartRequest) (StartReply, error) {
	return forward(ctx, c, opStart, Client.Start, req)
}

// Commit implements Client.
func (c *intercepted) Commit(ctx context.Context, req CommitRequest) (CommitReply, error) {
	return forward(ctx, c, opCommit, Client.Commit, req)
}

// Credit implements Client.
func (c *intercepted) Credit(ctx context.Context, req CreditRequest) (CommitReply, error) {
	return forward(ctx, c, opCredit, Client.Credit, req)
}

// Grow implements Client.
func (c *intercepted) Grow(ctx context.Context, req GrowRequest) (GrowReply, error) {
	return forward(ctx, c, opGrow, Client.Grow, req)
}

// Gains implements Client.
func (c *intercepted) Gains(ctx context.Context, req GainsRequest) (GainsReply, error) {
	return forward(ctx, c, opGains, Client.Gains, req)
}

// End implements Client.
func (c *intercepted) End(ctx context.Context, runID string) error {
	_, err := forward(ctx, c, opEnd, func(cl Client, ctx context.Context, id string) (struct{}, error) { return struct{}{}, cl.End(ctx, id) }, runID)
	return err
}

// AddAd implements Client.
func (c *intercepted) AddAd(ctx context.Context, req AddAdRequest) (MutateReply, error) {
	return forward(ctx, c, opAddAd, Client.AddAd, req)
}

// RemoveAd implements Client.
func (c *intercepted) RemoveAd(ctx context.Context, req RemoveAdRequest) (MutateReply, error) {
	return forward(ctx, c, opRemoveAd, Client.RemoveAd, req)
}

// SyncEstimates implements Client.
func (c *intercepted) SyncEstimates(ctx context.Context, req SyncEstimatesRequest) error {
	_, err := forward(ctx, c, opSyncEstimates, func(cl Client, ctx context.Context, req SyncEstimatesRequest) (struct{}, error) {
		return struct{}{}, cl.SyncEstimates(ctx, req)
	}, req)
	return err
}
