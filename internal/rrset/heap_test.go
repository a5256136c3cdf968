package rrset

import (
	"container/heap"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// boxedHeap is the container/heap reference MaxHeap claims to replicate:
// the same entries and the same ordering, driven through heap.Init /
// heap.Push / heap.Pop.
type boxedHeap[S int32 | float64] []heapEntry[S]

func (h boxedHeap[S]) Len() int           { return len(h) }
func (h boxedHeap[S]) Less(i, j int) bool { return h[i].score > h[j].score }
func (h boxedHeap[S]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap[S]) Push(x any)        { *h = append(*h, x.(heapEntry[S])) }
func (h *boxedHeap[S]) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// driveHeaps runs one random init/push/pop sequence through MaxHeap and the
// container/heap reference and requires the same backing array after every
// step. Scores come from a handful of values, so ties — where only an
// identical sift order gives an identical layout — are the common case.
func driveHeaps[S int32 | float64](t *testing.T, seed uint64, score func(int) S) {
	rng := xrand.New(seed)
	var got MaxHeap[S]
	var want boxedHeap[S]
	same := func(step int, op string) {
		t.Helper()
		if !reflect.DeepEqual([]heapEntry[S](got), []heapEntry[S](want)) {
			t.Fatalf("seed %d step %d (%s): arrays diverged\n  got %v\n want %v", seed, step, op, got, want)
		}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.IntN(16); {
		case op == 0: // rebuild from an unordered array
			got, want = got[:0], want[:0]
			for u, n := 0, rng.IntN(40); u < n; u++ {
				e := heapEntry[S]{int32(u), score(rng.IntN(5))}
				got, want = append(got, e), append(want, e)
			}
			got.Init()
			heap.Init(&want)
			same(step, "init")
		case op < 9:
			e := heapEntry[S]{int32(rng.IntN(64)), score(rng.IntN(5))}
			got.Push(e.node, e.score)
			heap.Push(&want, e)
			same(step, "push")
		case len(got) > 0:
			node, s := got.Pop()
			if e := heap.Pop(&want).(heapEntry[S]); e != (heapEntry[S]{node, s}) {
				t.Fatalf("seed %d step %d: popped (%d,%v), reference %v", seed, step, node, s, e)
			}
			same(step, "pop")
		}
	}
}

// TestMaxHeapMatchesContainerHeap checks the claim the candidate heaps and
// the CELF queue rest on: at both score types MaxHeap lays its array out
// exactly as container/heap would.
func TestMaxHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		driveHeaps(t, seed, func(i int) int32 { return int32(i) })
		driveHeaps(t, seed, func(i int) float64 { return float64(i) / 4 })
	}
}
