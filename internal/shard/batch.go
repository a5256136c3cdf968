// Batched distributed allocation: many selection runs against one pinned
// cluster epoch (the scatter-gather mirror of core.AllocateBatch).
//
// The per-item cost a naive loop pays over and over is the pilot round:
// every allocation needs each active ad's pilot widths, and a cold width
// cache re-ships MinTheta int64s per ad per item. AllocateBatch therefore
// primes the cache with ONE pilot round covering the union of ads the
// whole batch touches, then fans the items out under a
// bounded worker budget — steady state, each item's own pilot round ships
// no width payload at all (SkipWidths), and the batch pays one width
// transfer total. Each item still runs the ordinary Allocate, so its
// result is byte-identical to the sequential call (golden-pinned).

package shard

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/rrset"
)

// AllocateBatch evaluates many requests against one pinned cluster epoch
// and returns one core.BatchResult per request, in request order. The
// epoch is captured once: items that do not pin their own Request.Epoch
// are pinned to it, so a campaign mutation landing mid-batch fails the
// remaining items with core.ErrStaleEpoch instead of silently splitting
// the batch across campaign sets. Items fail independently; one bad
// request never poisons its siblings.
func (c *Coordinator) AllocateBatch(ctx context.Context, reqs []core.Request) []core.BatchResult {
	out := make([]core.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	m := c.current()
	c.primePilots(ctx, m, reqs)
	// At most maxOpenRuns/4 items run at once, so one batch cannot starve
	// a shard's run table. Items not yet started when ctx ends fail with
	// its error instead of opening runs nobody waits for.
	rrset.ParallelFor(len(reqs), maxOpenRuns/4, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		req := reqs[i]
		if req.Epoch == 0 {
			req.Epoch = m.epoch
		}
		out[i].Res, out[i].Err = c.Allocate(ctx, req)
	})
	return out
}

// primePilots warms the width cache with one pilot round per distinct
// pilot size in the batch (one round total when every item shares
// MinTheta): the union of ads the items activate, full widths, stored.
// Purely a prefetch — errors are swallowed and bad requests skipped,
// because each item re-validates and re-fetches on its own; priming never
// changes any allocation's content.
func (c *Coordinator) primePilots(ctx context.Context, m *mirror, reqs []core.Request) {
	groups := map[int]map[int]bool{}
	for i := range reqs {
		req := reqs[i]
		if req.Epoch != 0 && req.Epoch != m.epoch {
			continue
		}
		adIDs, _, _, err := req.Resolve(m.inst)
		if err != nil {
			continue
		}
		want := req.Opts.WithDefaults().MinTheta
		g := groups[want]
		if g == nil {
			g = make(map[int]bool, len(adIDs))
			groups[want] = g
		}
		for _, j := range adIDs {
			g[j] = true
		}
	}
	wants := make([]int, 0, len(groups))
	for want := range groups {
		wants = append(wants, want)
	}
	sort.Ints(wants)
	for _, want := range wants {
		ads := make([]int, 0, len(groups[want]))
		for j := range groups[want] {
			if !c.hasWidths(m.epoch, j, want) {
				ads = append(ads, j)
			}
		}
		if len(ads) == 0 {
			continue
		}
		sort.Ints(ads)
		if _, err := c.pilot(ctx, m, ads, want, make([]core.Pilot, len(ads))); err != nil {
			return
		}
	}
}

// hasWidths reports whether one ad's pilot is already cached.
func (c *Coordinator) hasWidths(epoch uint64, ad, want int) bool {
	c.widthMu.Lock()
	defer c.widthMu.Unlock()
	if c.widthEpoch != epoch {
		return false
	}
	_, ok := c.widthCache[widthKey{ad: ad, want: want}]
	return ok
}
