package graph

import "testing"

func TestWeakComponentsBasic(t *testing.T) {
	// Two islands: {0,1,2} chained, {3,4} chained, 5 isolated.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	labels, count := WeakComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first island split")
	}
	if labels[3] != labels[4] {
		t.Error("second island split")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("isolated node merged")
	}
}

func TestWeakComponentsDirectionBlind(t *testing.T) {
	// 0->1<-2: weakly one component despite no directed path 0..2.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.MustBuild()
	if _, count := WeakComponents(g); count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestGiantComponentFrac(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if f := GiantComponentFrac(g); f != 0.6 {
		t.Fatalf("giant frac %v, want 0.6", f)
	}
	if f := GiantComponentFrac(NewBuilder(0).MustBuild()); f != 0 {
		t.Fatalf("empty graph frac %v", f)
	}
}
