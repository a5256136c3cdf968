package graph

// WeakComponents labels the weakly-connected components of the graph
// (edges treated as undirected) and returns the label vector plus the
// component count. Labels are dense in [0, count) in order of first
// appearance. Dataset generators use this to verify that analogues are not
// shattered into fragments, and the Table 1 extended statistics report the
// giant component's share.
func WeakComponents(g *Graph) (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for start := int32(0); start < int32(n); start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[start] = id
		queue = queue[:0]
		queue = append(queue, start)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			targets, _ := g.OutEdges(u)
			for _, v := range targets {
				if labels[v] < 0 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
			sources, _ := g.InRow(u)
			for _, v := range sources {
				if labels[v] < 0 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return labels, count
}

// GiantComponentFrac returns the fraction of nodes in the largest weakly
// connected component (0 for an empty graph).
func GiantComponentFrac(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	labels, count := WeakComponents(g)
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return float64(max) / float64(g.N())
}
