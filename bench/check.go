package main

import (
	"fmt"
	"sync"
)

// checks collects the output checks of one run. The first failures are kept
// verbatim for the report; every failure counts.
type checks struct {
	mu       sync.Mutex
	passed   int
	failed   int
	failures []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// verify records err as a failed check named what, or a pass when nil.
func (c *checks) verify(what string, err error) {
	if err != nil {
		c.fail("%s: %v", what, err)
		return
	}
	c.mu.Lock()
	c.passed++
	c.mu.Unlock()
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed == 0
}

// seedChecker validates the shape every allocation must have. It owns
// per-node scratch so a load-generator client can check every response
// without allocating; it is not safe for concurrent use.
type seedChecker struct {
	count  []uint8 // ads that seeded the node in this allocation
	lastAd []int32 // 1 + the last ad that seeded the node
}

// check verifies one seed list per ad, node ids inside the graph, no node
// twice within an ad, and no node seeded for more than kappa ads (the
// paper's attention bound).
func (sc *seedChecker) check(seeds [][]int32, numAds, numNodes, kappa int) error {
	if len(seeds) != numAds {
		return fmt.Errorf("%d seed lists for %d ads", len(seeds), numAds)
	}
	if len(sc.count) != numNodes {
		sc.count = make([]uint8, numNodes)
		sc.lastAd = make([]int32, numNodes)
	}
	clear(sc.count)
	clear(sc.lastAd)
	for ad, list := range seeds {
		for _, u := range list {
			if u < 0 || int(u) >= numNodes {
				return fmt.Errorf("ad %d seeds node %d outside [0,%d)", ad, u, numNodes)
			}
			if sc.lastAd[u] == int32(ad)+1 {
				return fmt.Errorf("ad %d seeds node %d twice", ad, u)
			}
			sc.lastAd[u] = int32(ad) + 1
			if sc.count[u]++; int(sc.count[u]) > kappa {
				return fmt.Errorf("node %d seeded for %d ads, attention bound is %d", u, sc.count[u], kappa)
			}
		}
	}
	return nil
}

// sameSeeds reports the first difference between two allocations that must
// be seed-for-seed identical (the repo's golden invariant: snapshots, shards
// and transports never change an allocation).
func sameSeeds(got, want [][]int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d seed lists, want %d", len(got), len(want))
	}
	for ad := range want {
		if len(got[ad]) != len(want[ad]) {
			return fmt.Errorf("ad %d has %d seeds, want %d", ad, len(got[ad]), len(want[ad]))
		}
		for i := range want[ad] {
			if got[ad][i] != want[ad][i] {
				return fmt.Errorf("ad %d seed %d is node %d, want %d", ad, i, got[ad][i], want[ad][i])
			}
		}
	}
	return nil
}
