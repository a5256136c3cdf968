// Deadline/retry/backoff decorator for shard clients. RetryClient is a
// transport-blind sibling of InstrumentClient: every RPC gets a per-attempt
// deadline sized to its op class (fast coverage ops vs sampling-heavy
// ones), transient failures retry in place under capped exponential backoff
// with deterministic seeded jitter, and the rest propagate at once. An
// in-place retry is the only way a run op reaches a replica twice (a run a
// replica loses is re-run under a fresh id, never replayed), and the
// shard's sequence guard (CommitRequest.Seq) answers a retried
// Commit/Credit/Grow whose first attempt applied from its cached reply.
// The other ops are idempotent: deterministic streams converge.

package shard

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// ErrorClass buckets RPC failures for the retry and failover layers.
type ErrorClass int

const (
	// ClassRetryable marks transient failures — timeouts, connection
	// errors, 5xx — worth retrying against the same replica.
	ClassRetryable ErrorClass = iota
	// ClassFailover marks failures the same replica cannot heal in place
	// (it is draining, missing the run, or out of sequence): the
	// coordinator re-runs the run, wherever the range then routes it.
	ClassFailover
	// ClassTerminal marks failures no retry or failover fixes: the request
	// itself is stale or malformed (stale epoch, 4xx, cancellation).
	ClassTerminal
)

// Classify buckets an RPC error. Transport-blind: sentinels and RPCError
// survive the HTTP mapping (see errOf), and anything unrecognized — raw
// connection errors, unexpected transport failures — defaults to
// retryable, the safe bucket now that sequenced run ops are replay-proof.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassRetryable
	case errors.Is(err, context.Canceled):
		return ClassTerminal
	case errors.Is(err, ErrStaleEpoch):
		return ClassTerminal
	case errors.Is(err, ErrUnknownRun), errors.Is(err, ErrBadSeq), errors.Is(err, ErrDraining):
		return ClassFailover
	case errors.Is(err, context.DeadlineExceeded):
		return ClassRetryable
	default:
		var rpc *RPCError
		if errors.As(err, &rpc) {
			if rpc.Status >= 500 {
				return ClassRetryable
			}
			return ClassTerminal
		}
		return ClassRetryable
	}
}

// retryReason labels a retry for the shard_rpc_retries_total metric with
// bounded cardinality: timeout, draining, server (5xx), or connection
// (anything else transient).
func retryReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, ErrDraining):
		return "draining"
	default:
		var rpc *RPCError
		if errors.As(err, &rpc) {
			return "server"
		}
		return "connection"
	}
}

// RetryPolicy shapes a RetryClient. The zero value is usable: every field
// defaults via WithDefaults.
type RetryPolicy struct {
	// MaxAttempts is the total tries per RPC, first attempt included
	// (default 3).
	MaxAttempts int
	// Timeout is the per-attempt deadline for fast ops — info, commit,
	// credit, gains, end, removeAd (default 30s).
	Timeout time.Duration
	// SamplingTimeout is the per-attempt deadline for ops that may draw
	// fresh RR sets — pilot, ensure, start, grow, addAd — whose cost
	// scales with θ (default 10× Timeout).
	SamplingTimeout time.Duration
	// BaseBackoff is the first retry's backoff ceiling; attempt i waits
	// BaseBackoff·2^(i-1) capped at MaxBackoff, jittered into
	// [½, 1)× deterministically (default 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed seeds the jitter stream; a fixed seed makes the whole backoff
	// sequence deterministic (default 1).
	Seed uint64
	// Label tags this client's RPC spans with a replica identity
	// ("range/replica", e.g. "0/1") so a waterfall shows which replica
	// served each attempt loop. Empty adds no attribute.
	Label string
}

// WithDefaults fills unset fields with the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.SamplingTimeout <= 0 {
		p.SamplingTimeout = 10 * p.Timeout
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// NewRetryClient wraps cl with the policy's deadline/retry/backoff
// behavior. m, when non-nil, books each retry under
// prefix_shard_rpc_retries_total{op,reason}. Wrap order in a replicated
// stack is ReplicaSet(RetryClient(InstrumentClient(transport))): the
// instrument layer then meters every attempt individually.
func NewRetryClient(cl Client, p RetryPolicy, m *Metrics) Client {
	p = p.WithDefaults()
	c := &retryClient{p: p, m: m, rng: xrand.New(p.Seed)}
	c.wrap(cl, c.do)
	return c
}

// retryClient decorates a Client with deadlines, retries, and backoff: do
// is the around of its embedded forwarding client.
type retryClient struct {
	intercepted
	p RetryPolicy
	m *Metrics

	mu  sync.Mutex // guards rng: concurrent RPCs share the jitter stream
	rng *xrand.Rand
}

// backoff returns the wait before retry `attempt` (1-based): capped
// exponential with deterministic jitter in [½, 1)× the cap.
func (c *retryClient) backoff(attempt int) time.Duration {
	d := c.p.BaseBackoff << uint(attempt-1)
	if d <= 0 || d > c.p.MaxBackoff {
		d = c.p.MaxBackoff
	}
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// do runs one RPC under the retry loop, each attempt under the deadline of
// the op's class (opTable). One span ("rpc.<op>") covers the whole attempt
// loop — retries land on it as "retry.<reason>" events (and flag the trace
// for tail-retention), so a retry storm is visible inside the very trace it
// slowed down.
func (c *retryClient) do(ctx context.Context, rc rpcCall) error {
	timeout := c.p.Timeout
	if opTable[rc.op].sampling {
		timeout = c.p.SamplingTimeout
	}
	ctx, span := obs.StartSpan(ctx, rpcSpans[rc.op])
	if span != nil && c.p.Label != "" {
		span.SetStr("replica", c.p.Label)
	}
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, timeout)
		err = rc.invoke(actx)
		cancel()
		if err == nil {
			span.End()
			return nil
		}
		if ctx.Err() != nil {
			// The caller's own context expired or was cancelled — not the
			// per-attempt deadline. Never retry past it.
			span.EndErr(err)
			return err
		}
		if Classify(err) != ClassRetryable || attempt >= c.p.MaxAttempts {
			span.EndErr(err)
			return err
		}
		reason := retryReason(err)
		if c.m != nil {
			c.m.retries.With(rc.op.String(), reason).Inc()
		}
		span.Event("retry."+reason, obs.Int("attempt", int64(attempt)))
		span.Retain(obs.RetainRetry)
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			span.EndErr(err)
			return err
		}
	}
}
