// Deterministic fault injection for the shard fabric. FaultClient wraps
// any Client with a scriptable per-op fault plan: rules fire by op name,
// call index, and (optionally) a seeded coin flip, injecting errors,
// delays, deadline blocks, or drop-after-send (the op executes, its reply
// is discarded) — the failure modes a real network exhibits, reproduced
// bit-for-bit under a fixed seed. The golden fault tests and internal/
// sim's chaos mode drive replicated clusters through these plans and pin
// the allocations byte-identical to fault-free single-node runs.

package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/xrand"
)

// ErrInjected is the error FaultError and FaultDropAfterSend rules return.
// It classifies as retryable (it stands in for a transport failure).
var ErrInjected = errors.New("shard: injected fault")

// FaultKind selects what a matching rule does to the call.
type FaultKind int

const (
	// FaultError fails the call immediately without invoking the
	// underlying client — a connection that never got through.
	FaultError FaultKind = iota
	// FaultDelay sleeps Delay (bounded by the context), then calls
	// through — a slow replica.
	FaultDelay
	// FaultTimeout blocks until the context expires (or Delay passes,
	// when set) without invoking the underlying client, then fails — a
	// black-holed request.
	FaultTimeout
	// FaultDropAfterSend invokes the underlying client, discards its
	// reply, and fails — the request applied server-side but the reply
	// was lost, the case the sequence guard exists for.
	FaultDropAfterSend
)

// FaultRule is one entry of a fault plan.
type FaultRule struct {
	// Op names the RPC the rule applies to ("commit", "pilot", …, the
	// InstrumentClient op labels); "*" matches every op. Any other value
	// panics in NewFaultClient.
	Op string
	// From is the 0-based per-op call index the rule arms at (calls are
	// counted per op name across the client's lifetime; "*" rules count
	// against the total).
	From int
	// Count caps how many times the rule fires; 0 means no cap.
	Count int
	// Kind is what the rule does when it fires.
	Kind FaultKind
	// Delay is the sleep for FaultDelay and the optional unblock bound
	// for FaultTimeout.
	Delay time.Duration
	// Prob, when in (0, 1), gates each firing on a deterministic seeded
	// coin flip; 0 (or ≥ 1) fires unconditionally.
	Prob float64
}

// FaultClient wraps a Client with a deterministic fault plan. Safe for
// concurrent use; rule matching and the coin-flip stream are serialized,
// so a fixed (seed, call order) reproduces the same faults.
type FaultClient struct {
	intercepted // forwards every op through apply

	mu    sync.Mutex
	rng   *xrand.Rand
	rules []FaultRule
	fired []int       // per-rule firing counts
	calls [numOps]int // per-op call counts
	total int         // calls of any op, what "*" rules count against
}

// NewFaultClient wraps cl with a plan. seed drives the Prob coin flips. A
// rule whose Op is neither "*" nor an op name could never fire and would
// script a fault-free run, so it panics: a plan is test and chaos code.
func NewFaultClient(cl Client, seed uint64, rules ...FaultRule) *FaultClient {
	for _, r := range rules {
		if r.Op != "*" && !slices.ContainsFunc(opTable[:], func(row opRow) bool { return row.name == r.Op }) {
			panic(fmt.Sprintf("shard: fault rule names unknown op %q", r.Op))
		}
	}
	c := &FaultClient{
		rng:   xrand.New(seed),
		rules: rules,
		fired: make([]int, len(rules)),
	}
	c.wrap(cl, c.apply)
	return c
}

// Fired returns how many times each rule has fired, aligned with the
// constructor's rules — test assertions that a plan actually exercised
// the paths it scripted.
func (c *FaultClient) Fired() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.fired...)
}

// match books one call of o and returns the first armed matching rule, if
// any.
func (c *FaultClient) match(o op) (FaultRule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, total := c.calls[o], c.total
	c.calls[o]++
	c.total++
	for i, r := range c.rules {
		at := idx
		if r.Op == "*" {
			at = total
		} else if r.Op != o.String() {
			continue
		}
		if at < r.From {
			continue
		}
		if r.Count > 0 && c.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !c.rng.Bernoulli(r.Prob) {
			continue
		}
		c.fired[i]++
		return r, true
	}
	return FaultRule{}, false
}

// apply runs one call under the plan.
func (c *FaultClient) apply(ctx context.Context, rc rpcCall) error {
	r, ok := c.match(rc.op)
	if !ok {
		return rc.invoke(ctx)
	}
	switch r.Kind {
	case FaultError:
		return ErrInjected
	case FaultDelay:
		if !faultSleep(ctx, r.Delay) {
			return ctx.Err()
		}
		return rc.invoke(ctx)
	case FaultTimeout:
		if r.Delay > 0 {
			if !faultSleep(ctx, r.Delay) {
				return ctx.Err()
			}
			return ErrInjected
		}
		<-ctx.Done()
		return ctx.Err()
	case FaultDropAfterSend:
		rc.invoke(ctx)
		return ErrInjected
	default:
		return ErrInjected
	}
}

// faultSleep sleeps d bounded by ctx; false means the context won.
func faultSleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
