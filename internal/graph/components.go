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

// StrongComponents labels the strongly-connected components using an
// iterative Tarjan algorithm (explicit stack — safe for graphs far deeper
// than Go's goroutine stack would allow recursively). Labels are dense in
// [0, count); within the condensation they follow reverse topological
// order, a property of Tarjan's algorithm that tests rely on.
func StrongComponents(g *Graph) (labels []int32, count int) {
	n := g.N()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	labels = make([]int32, n)
	for i := range index {
		index[i] = unvisited
		labels[i] = -1
	}
	var next int32
	var stack []int32 // Tarjan's SCC stack

	// Explicit DFS frames: node plus position within its out-edge list.
	type frame struct {
		u   int32
		pos int
	}
	var dfs []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{u: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			targets, _ := g.OutEdges(f.u)
			if f.pos < len(targets) {
				v := targets[f.pos]
				f.pos++
				if index[v] == unvisited {
					index[v] = next
					low[v] = next
					next++
					stack = append(stack, v)
					onStack[v] = true
					dfs = append(dfs, frame{u: v})
				} else if onStack[v] && index[v] < low[f.u] {
					low[f.u] = index[v]
				}
				continue
			}
			// All children explored: close the frame.
			u := f.u
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if low[u] < low[p.u] {
					low[p.u] = low[u]
				}
			}
			if low[u] == index[u] {
				id := int32(count)
				count++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					labels[w] = id
					if w == u {
						break
					}
				}
			}
		}
	}
	return labels, count
}
