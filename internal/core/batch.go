// Batched allocation: many selection runs against one pinned index epoch.
//
// A serving host that evaluates a burst of what-if requests (budget
// renegotiations, per-advertiser scenario sweeps, A/B probes) pays, per
// request, the epoch load, workspace checkout, and KPT re-estimation — and
// risks the campaign set swapping between items, so positional overrides
// stop lining up across the burst. AllocateBatch pins the epoch once and
// fans the items over the bounded worker budget: every item sees the same
// campaign set, workspaces recycle through one pool across items, and the
// per-ad KPT caches (kptCache, powMemo) stay hot from item to item instead
// of re-deriving the same θ sizing per request. Each item is evaluated by
// the ordinary allocateEpoch, so its result is byte-identical to a
// sequential AllocateFromIndex against that epoch (golden-pinned).

package core

import (
	"context"

	"repro/internal/rrset"
)

// BatchResult is one item's outcome in an AllocateBatch call: exactly the
// (result, error) pair the equivalent AllocateFromIndex call would return.
type BatchResult struct {
	// Res is the item's allocation result (nil when Err is set).
	Res *TIRMResult
	// Err is the item's failure, if any — items fail independently; one
	// bad request never poisons its batch siblings.
	Err error
}

// AllocateBatch evaluates many requests against one pinned epoch of the
// index and returns one BatchResult per request, in request order. All
// items observe the same campaign set even if AddAd/RemoveAd land mid
// batch (requests pinning a different Request.Epoch fail with
// ErrStaleEpoch, exactly as they would alone). Items run concurrently
// under the same rrset.ParallelFor budget that bounds per-ad set-up, and
// each item's allocation is byte-identical to the sequential
// AllocateFromIndex call with the same request against that epoch —
// batching changes cost, never results.
func AllocateBatch(idx *Index, reqs []Request) []BatchResult {
	return AllocateBatchContext(context.Background(), idx, reqs)
}

// AllocateBatchContext is AllocateBatch under ctx: an item that has not
// started when ctx is done fails with ctx's error, and a running one stops
// before its next round (as AllocateFromIndexContext does). Items that
// complete are unchanged by cancellation.
func AllocateBatchContext(ctx context.Context, idx *Index, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	ep := idx.curr.Load()
	rrset.ParallelFor(len(reqs), 0, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i] = BatchResult{Err: err}
			return
		}
		res, err := allocateEpoch(ctx, idx, ep, reqs[i])
		out[i] = BatchResult{Res: res, Err: err}
	})
	return out
}
