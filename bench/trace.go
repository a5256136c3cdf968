package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program under test. Start and End are nanoseconds since the
// recorder's epoch; Parent is the id of the span that caused this one (-1
// for the root); Req groups the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced calls of the ladder run the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// noSpan is the id a nil recorder hands out.
const noSpan = -1

func (r *recorder) start(parent int, layer, name string, req int) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req, Start: now, End: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON writes every span to path.
func (r *recorder) writeJSON(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open stretch of recorder time.
type interval struct{ from, to int64 }

// unionLen is the total time covered by at least one of the intervals.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].from < s[j].from })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.from > cur.to {
			total += cur.to - cur.from
			cur = iv
			continue
		}
		if iv.to > cur.to {
			cur.to = iv.to
		}
	}
	total += cur.to - cur.from
	return time.Duration(total)
}

// waves counts the maximal groups of time-overlapping intervals: a
// scatter-gather coordinator waits for every reply before the next round, so
// each group of overlapping RPC spans is one round.
func waves(ivs []interval) int {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].from < s[j].from })
	n, end := 1, s[0].to
	for _, iv := range s[1:] {
		if iv.from > end {
			n++
			end = iv.to
		} else if iv.to > end {
			end = iv.to
		}
	}
	return n
}

// layerTimes attributes every instant of the root span to the layer of the
// deepest span active at that instant, so parallel siblings (the RPCs of one
// scatter round) are counted once and the per-layer times plus the
// remainder — time inside the root that no child covers — sum to the root's
// duration exactly.
func layerTimes(spans []span, root int) (byLayer map[string]time.Duration, remainder, wall time.Duration) {
	byLayer = map[string]time.Duration{}
	if root < 0 || root >= len(spans) {
		return byLayer, 0, 0
	}
	depth := make([]int, len(spans))
	inTree := make([]bool, len(spans))
	inTree[root] = true
	for i := range spans { // parents are always recorded before children
		if p := spans[i].Parent; i != root && p >= 0 && p < i && inTree[p] {
			inTree[i] = true
			depth[i] = depth[p] + 1
		}
	}
	type event struct {
		at   int64
		open bool
		id   int
	}
	lo, hi := spans[root].Start, spans[root].End
	var evs []event
	for i, s := range spans {
		if !inTree[i] {
			continue
		}
		from, to := max(s.Start, lo), min(s.End, hi)
		if to <= from && i != root {
			continue
		}
		evs = append(evs, event{from, true, i}, event{to, false, i})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].open && evs[j].open // close before open at the same instant
	})
	active := map[int]bool{}
	prev := lo
	for _, e := range evs {
		if e.at > prev && len(active) > 0 {
			deepest := -1
			for id := range active {
				if deepest < 0 || depth[id] > depth[deepest] || (depth[id] == depth[deepest] && id < deepest) {
					deepest = id
				}
			}
			if deepest == root {
				remainder += time.Duration(e.at - prev)
			} else {
				byLayer[spans[deepest].Layer] += time.Duration(e.at - prev)
			}
		}
		prev = max(prev, e.at)
		if e.open {
			active[e.id] = true
		} else {
			delete(active, e.id)
		}
	}
	return byLayer, remainder, spans[root].dur()
}
