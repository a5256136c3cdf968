package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// tally counts the operations a run sent to the program under test.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	retried   atomic.Int64
}

// clientTimeout bounds any single request; the slowest legitimate one is a
// paper-scale cold build (≈ 6 s on the probe box).
const clientTimeout = 90 * time.Second

// loadClients is the number of client goroutines and connections every load
// generator uses. It is fixed, not derived from the machine, so the offered
// concurrency is the same wherever the benchmark runs.
const loadClients = 2

// target is what a load generator needs to know about the system it drives.
type target struct {
	url      string
	params   serve.InstanceParams
	budgets  []float64
	numNodes int
}

// allocate sends one allocation on behalf of a load generator, checks the
// shape of the reply against the instance and κ, and tallies the attempt.
func (tg target) allocate(ctx context.Context, c *client, sc *seedChecker, req serve.AllocateRequest, kappa int, tl *tally) (*serve.AllocateResponse, time.Duration, error) {
	tl.attempted.Add(1)
	resp, _, lat, err := c.allocate(ctx, req)
	if err == nil {
		err = sc.check(resp.Seeds, len(tg.budgets), tg.numNodes, kappa)
	}
	if err != nil {
		tl.failed.Add(1)
		return nil, lat, err
	}
	return resp, lat, nil
}

// runClosed drives POST /allocate in a closed loop from loadClients clients
// until window has elapsed, checking the shape of every reply. It returns the
// client-observed latencies of the successful allocations and the wall time.
func runClosed(ctx context.Context, tg target, seed uint64, window time.Duration, tl *tally, ck *checks) (sample, time.Duration) {
	lats := make([]sample, loadClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < loadClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(tg.url, clientTimeout)
			defer c.close()
			gen := newAllocGen(xrand.New(seed).Split(uint64(100+i)), tg)
			var sc seedChecker
			for time.Since(start) < window && ctx.Err() == nil {
				req, kappa := gen.next()
				_, lat, err := tg.allocate(ctx, c, &sc, req, kappa, tl)
				if err != nil {
					ck.fail("closed loop client %d: %v", i, err)
					continue
				}
				lats[i].addDur(lat)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all sample
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, wall
}

// mixState is the campaign state the lifecycle mix carries from operation to
// operation: which benchmark-added ads are live, so a DELETE always names an
// ad whose POST has completed and the campaign stays within its bounds.
type mixState struct {
	mu      sync.Mutex
	live    []string // benchmark-added ads, oldest first
	pending int      // POST /ads in flight
	added   int      // names handed out
	spends  int
}

// spendsPerReset is how often POST /spend clears the ledger, so residual
// allocations cost the same at the end of a run as at its start.
const spendsPerReset = 200

// opResult is the outcome of one scheduled operation. late is how long after
// its due time it was sent; lat is due time to completion, which is what a
// caller who wanted it at the due time waited.
type opResult struct {
	kind    opKind
	isAdd   bool
	ok      bool
	retried bool
	late    time.Duration
	lat     time.Duration
}

// openConns is the number of connections the open loop sends over. Campaign
// events come from independent users, so an event must not wait for an
// unrelated earlier one to finish: with only loadClients connections a single
// 11 ms POST /ads holds up every event scheduled behind it on that connection
// and the measured latency is the load generator's queue, not the program's.
// Eight connections mostly wait; how late the generator still ran is reported
// per rate (late_p95_ms), and send-to-reply latency beside due-to-reply.
const openConns = 8

// runMix sends the campaign events of sched over conns connections, each
// connection taking the next unsent event. With closed == 0 the loop is
// open: a connection waits until its event is due and sends it whether or
// not earlier ones have finished on the other connections; latency runs from
// the due time. With closed > 0 the due times are ignored: every connection
// sends its next event as soon as its previous one returns, until closed has
// elapsed or sched runs out. It returns one result per event sent, the wall
// time, and (open loop) how long after the last due time the last reply came.
func runMix(ctx context.Context, tg target, conns int, sched []op, closed time.Duration, st *mixState, tl *tally, ck *checks) (results []opResult, wall, drain time.Duration) {
	results = make([]opResult, len(sched))
	if len(sched) == 0 {
		return results, 0, 0
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(tg.url, clientTimeout)
			defer c.close()
			var sc seedChecker
			for ctx.Err() == nil {
				if closed > 0 && time.Since(start) >= closed {
					return
				}
				n := int(next.Add(1)) - 1
				if n >= len(sched) {
					return
				}
				o := sched[n]
				if closed > 0 {
					o.due = time.Since(start)
				} else if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				tl.attempted.Add(1)
				r := opResult{kind: o.kind, late: sent - o.due}
				err := st.execute(ctx, c, tg, o, &sc, &r)
				r.lat = time.Since(start) - o.due
				if r.retried {
					tl.retried.Add(1)
				}
				if err != nil {
					tl.failed.Add(1)
					ck.fail("lifecycle op %d (%s): %v", n, opNames[o.kind], err)
				}
				r.ok = err == nil
				results[n] = r
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	if closed > 0 {
		// Every event claimed was sent: the window is checked first.
		return results[:min(int(next.Load()), len(sched))], wall, 0
	}
	return results, wall, wall - sched[len(sched)-1].due
}

// execute performs one campaign event against the system.
func (st *mixState) execute(ctx context.Context, c *client, tg target, o op, sc *seedChecker, r *opResult) error {
	switch o.kind {
	case opLight, opResidual:
		req := serve.AllocateRequest{InstanceParams: tg.params, Kappa: o.k}
		if o.kind == opLight {
			req.Ads = []int{o.a}
			if o.b >= 0 {
				req.Ads = append(req.Ads, o.b)
			}
		} else {
			req.Residual = true
		}
		resp, status, _, err := c.allocate(ctx, req)
		if status == http.StatusConflict {
			// An ad arrived or left between the server pinning the epoch
			// and running the selection; the documented remedy is to retry.
			r.retried = true
			resp, _, _, err = c.allocate(ctx, req)
		}
		if err != nil {
			return err
		}
		if err := sc.check(resp.Seeds, len(resp.AdNames), tg.numNodes, o.k); err != nil {
			return err
		}
		if o.kind == opLight {
			for ad, seeds := range resp.Seeds {
				if len(seeds) > 0 && ad != o.a && ad != o.b {
					return fmt.Errorf("ad %d got %d seeds but was not requested", ad, len(seeds))
				}
			}
		}
		return nil
	case opSpend:
		st.mu.Lock()
		st.spends++
		reset := st.spends%spendsPerReset == 0
		st.mu.Unlock()
		req := serve.SpendRequest{
			InstanceParams: tg.params,
			Spend:          map[string]float64{adName(o.a): tg.budgets[o.a] * 0.005 * (0.5 + o.x)},
			Reset:          reset,
		}
		_, err := c.call(ctx, http.MethodPost, "/spend", req, nil)
		return err
	case opFeedback:
		req := serve.FeedbackRequest{
			InstanceParams: tg.params,
			Events:         []bandit.Event{{Ad: adName(o.a), Impressions: o.n, Clicks: int64(float64(o.n) * o.x * 0.1)}},
		}
		_, err := c.call(ctx, http.MethodPost, "/feedback", req, nil)
		return err
	case opChurn:
		return st.churn(ctx, c, tg, o, r)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// churn adds an ad, or removes the oldest benchmark-added one, keeping the
// campaign between baseAds and maxLiveAds ads.
func (st *mixState) churn(ctx context.Context, c *client, tg target, o op, r *opResult) error {
	st.mu.Lock()
	room := baseAds+len(st.live)+st.pending < maxLiveAds
	remove := len(st.live) > 0 && (!room || o.x < 0.5)
	var name string
	if remove {
		name, st.live = st.live[0], st.live[1:]
	} else if room {
		st.added++
		st.pending++
		name = fmt.Sprintf("bench%04d", st.added)
	}
	st.mu.Unlock()
	switch {
	case remove:
		_, err := c.call(ctx, http.MethodDelete, removeAdPath(tg.params, name), nil, nil)
		return err
	case name == "":
		// Full campaign and every added ad still in flight: read the ledger
		// instead, so the schedule keeps its arrival count.
		_, err := c.call(ctx, http.MethodPost, "/spend", serve.SpendRequest{InstanceParams: tg.params}, nil)
		return err
	}
	r.isAdd = true
	req := serve.AddAdRequest{InstanceParams: tg.params, Ad: serve.NewAdSpec{
		Name:     name,
		Budget:   tg.budgets[o.a],
		CPE:      5.5,
		CTP:      0.02,
		Template: o.a,
	}}
	_, err := c.call(ctx, http.MethodPost, "/ads", req, nil)
	st.mu.Lock()
	st.pending--
	if err == nil {
		st.live = append(st.live, name)
	}
	st.mu.Unlock()
	return err
}

// drainLimit is the backlog, in seconds of work left after the last due
// time, past which a rate does not count as sustained.
const drainLimit = 500 * time.Millisecond

// sustained reports whether an open-loop window met the latency limit: at
// least 99% of the operations sent succeeded within latencyLimit of their due
// time, and the backlog at the end was under drainLimit.
func sustained(results []opResult, drain time.Duration) bool {
	return withinLimit(results) >= 0.99 && drain < drainLimit
}

// withinLimit is the share of the operations sent that succeeded within
// latencyLimit of their due time.
func withinLimit(results []opResult) float64 {
	if len(results) == 0 {
		return 0
	}
	within := 0
	for _, r := range results {
		if r.ok && r.lat <= latencyLimit {
			within++
		}
	}
	return float64(within) / float64(len(results))
}
