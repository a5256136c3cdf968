package rrset

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// topOneMirror is one coverage state held twice: `fast` is queried through
// TopNodesInto(1) (the depth-1 path), `ref` through candidates.topLoop(1) (the
// general loop), and every mutation is applied to both.
type topOneMirror interface {
	// query asks both sides for their top eligible node and fails the test
	// unless they agree on node, score and the whole heap array.
	query(t *testing.T, eligible func(int32) bool, tag string) (node int32, ok bool)
	commit(u int32)             // cover / soft-commit u on both sides
	creditFrom(u int32, id int) // re-credit u with the sets id.. on both sides
	drop(u int32)
	grow(f *SetFamily) (firstID int)
}

// sameTopOne fails the test unless the depth-1 path (f*) and the general
// loop (r*) returned the same node and score and left the same heap array;
// it returns the node, if there was one.
func sameTopOne[S, H any](t *testing.T, tag string, fn, rn []int32, fs, rs []S, fpq, rpq H) (int32, bool) {
	t.Helper()
	if !reflect.DeepEqual(fn, rn) || !reflect.DeepEqual(fs, rs) {
		t.Fatalf("%s: depth-1 path returned %v/%v, general loop %v/%v", tag, fn, fs, rn, rs)
	}
	if !reflect.DeepEqual(fpq, rpq) {
		t.Fatalf("%s: heap arrays diverged\n fast %v\n  ref %v", tag, fpq, rpq)
	}
	if len(fn) == 0 {
		return 0, false
	}
	return fn[0], true
}

type hardMirror struct{ fast, ref *Collection }

func (m *hardMirror) query(t *testing.T, eligible func(int32) bool, tag string) (int32, bool) {
	t.Helper()
	fn, fc := m.fast.TopNodesInto(1, eligible, nil, nil)
	rn, rc := m.ref.topLoop(1, m.ref.cov, 0, eligible, nil), []int(nil)
	for _, u := range rn {
		rc = append(rc, m.ref.Coverage(u))
	}
	return sameTopOne(t, tag, fn, rn, fc, rc, m.fast.pq, m.ref.pq)
}
func (m *hardMirror) commit(u int32) { m.fast.CoverNode(u); m.ref.CoverNode(u) }
func (m *hardMirror) creditFrom(u int32, id int) {
	m.fast.CountAndCoverFrom(u, id)
	m.ref.CountAndCoverFrom(u, id)
}
func (m *hardMirror) drop(u int32) { m.fast.Drop(u); m.ref.Drop(u) }
func (m *hardMirror) grow(f *SetFamily) int {
	id := m.fast.NumSets()
	m.fast.AddFamily(f.View())
	m.ref.AddFamily(f.View())
	return id
}

// counterMirror is hardMirror over counter-mode collections: a set-backed
// shadow computes each cover's decrement vector, which is what a shard
// would ship and what both counter collections apply.
type counterMirror struct {
	hardMirror
	shadow *Collection
}

func (m *counterMirror) commit(u int32) {
	covered, nodes, decs := m.shadow.CoverNodeDelta(u, nil, nil)
	m.fast.ApplyCover(covered, nodes, decs)
	m.ref.ApplyCover(covered, nodes, decs)
}
func (m *counterMirror) creditFrom(u int32, id int) {
	covered, nodes, decs := m.shadow.CountAndCoverFromDelta(u, id, nil, nil)
	m.fast.ApplyCover(covered, nodes, decs)
	m.ref.ApplyCover(covered, nodes, decs)
}
func (m *counterMirror) grow(f *SetFamily) int {
	id := m.shadow.NumSets()
	inv := BuildInverted(m.shadow.N(), f.View(), 0)
	var nodes, counts []int32
	for u := int32(0); int(u) < m.shadow.N(); u++ {
		if c := inv.Count(u); c > 0 {
			nodes, counts = append(nodes, u), append(counts, int32(c))
		}
	}
	m.shadow.AddFamily(f.View())
	m.fast.AddCounts(nodes, counts, f.Len())
	m.ref.AddCounts(nodes, counts, f.Len())
	return id
}

type softMirror struct {
	fast, ref *WeightedCollection
	delta     func(int32) float64
}

func (m *softMirror) query(t *testing.T, eligible func(int32) bool, tag string) (int32, bool) {
	t.Helper()
	fn, fc := m.fast.TopNodesInto(1, eligible, nil, nil)
	rn, rc := m.ref.topLoop(1, m.ref.wcov, floatSlack, eligible, nil), []float64(nil)
	for _, u := range rn {
		rc = append(rc, m.ref.WeightedCoverage(u))
	}
	return sameTopOne(t, tag, fn, rn, fc, rc, m.fast.pq, m.ref.pq)
}
func (m *softMirror) commit(u int32) {
	m.fast.Commit(u, m.delta(u))
	m.ref.Commit(u, m.delta(u))
}
func (m *softMirror) creditFrom(u int32, id int) {
	m.fast.CreditFrom(u, m.delta(u), id)
	m.ref.CreditFrom(u, m.delta(u), id)
}
func (m *softMirror) drop(u int32) { m.fast.Drop(u); m.ref.Drop(u) }
func (m *softMirror) grow(f *SetFamily) int {
	id := m.fast.NumSets()
	m.fast.AddFamily(f.View())
	m.ref.AddFamily(f.View())
	return id
}

// TestTopOneHeapEvolution pins the claim the depth-1 path of TopNodesInto
// rests on: it performs the general loop's heap operations in the general
// loop's order, so after any sequence of queries, commits, re-credits,
// drops, eligibility losses and growth the two heaps are the same array —
// and every later tie-break, hence every allocation, is unchanged. Small
// universes with few distinct scores keep ties (and stale duplicates)
// frequent.
func TestTopOneHeapEvolution(t *testing.T) {
	const n, sets, avg, steps = 48, 260, 4, 400
	build := map[string]func(f *SetFamily) topOneMirror{
		"hard/warm-start": func(f *SetFamily) topOneMirror {
			inv := BuildInverted(n, f.View(), 0)
			inv.PrepareCover()
			return &hardMirror{
				fast: NewCollectionFromFamily(n, f.View(), inv),
				ref:  NewCollectionFromFamily(n, f.View(), inv),
			}
		},
		"hard/counter": func(f *SetFamily) topOneMirror {
			m := &counterMirror{
				hardMirror: hardMirror{fast: NewCounterCollection(n), ref: NewCounterCollection(n)},
				shadow:     NewCollection(n),
			}
			m.grow(f)
			return m
		},
		// The coordinator's recycled mirror: fast is a workspace's counter,
		// its arrays dirtied first by a selecting set-backed run over more
		// nodes and by a counter run, so anything a reset leaves behind
		// (counters, dead marks, heap entries) shows up as a diverged heap.
		"hard/counter-recycled": func(f *SetFamily) topOneMirror {
			ws := NewWorkspace()
			used := ws.Collection(2*n, f.View(), BuildInverted(2*n, f.View(), 0))
			for u := int32(0); u < 2*n; u += 3 {
				used.TopNodes(2, nil)
				used.CoverNode(u)
				used.Drop(u + 1)
			}
			ws.Release()
			used = ws.Counter(n + 7)
			used.AddCounts([]int32{1, 5, n + 3}, []int32{4, 9, 2}, 3)
			used.TopNodes(3, nil)
			used.Drop(5)
			m := &counterMirror{
				hardMirror: hardMirror{fast: ws.Counter(n), ref: NewCounterCollection(n)},
				shadow:     NewCollection(n),
			}
			m.grow(f)
			return m
		},
		"soft/warm-start": func(f *SetFamily) topOneMirror {
			inv := BuildInverted(n, f.View(), 0)
			inv.PrepareCover()
			return &softMirror{
				fast:  NewWeightedCollectionFromFamily(n, f.View(), inv),
				ref:   NewWeightedCollectionFromFamily(n, f.View(), inv),
				delta: func(u int32) float64 { return 0.05 + 0.9*float64(u%7)/6 },
			}
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				rng := xrand.New(seed)
				m := mk(randomKernelFamily(rng, n, sets, avg))
				blocked := make([]bool, n)
				eligible := func(u int32) bool { return !blocked[u] }
				var seeds []int32
				for step := 0; step < steps; step++ {
					tag := fmt.Sprintf("seed %d step %d", seed, step)
					top, ok := m.query(t, eligible, tag)
					switch op := rng.IntN(10); {
					case op < 5 && ok: // the greedy's own move
						m.commit(top)
						m.drop(top)
						seeds = append(seeds, top)
					case op < 6: // commit someone who is not on top
						u := int32(rng.IntN(n))
						m.commit(u)
						seeds = append(seeds, u)
					case op < 7:
						m.drop(int32(rng.IntN(n)))
					case op < 9: // attention bound reached: never eligible again
						blocked[rng.IntN(n)] = true
					default: // θ growth, then re-credit of the seeds so far
						first := m.grow(randomKernelFamily(rng, n, 40, avg))
						for _, s := range seeds {
							m.creditFrom(s, first)
						}
					}
					m.query(t, eligible, tag+" after op")
				}
			}
		})
	}
}
