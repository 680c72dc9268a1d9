package shortest

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/pq"
)

// KShortestPaths implements Yen's algorithm: the K cheapest vertex-simple
// s→t paths by edge cost, in nondecreasing cost order (fewer than K are
// returned when the graph runs out of simple paths). Costs must be
// nonnegative. It backs the Yen-greedy baseline.
func KShortestPaths(g *graph.Digraph, s, t graph.NodeID, K int) []graph.Path {
	if K <= 0 {
		return nil
	}
	// One queue, tree and pair of ban masks serve the initial search and
	// every spur search: each tree is consumed (PathTo) before the next
	// search overwrites it, and each spur clears the bans it set.
	n := g.NumNodes()
	h := pq.New(n)
	done := make([]bool, n)
	tr := Tree{Dist: make([]int64, n), Parent: make([]graph.EdgeID, n)}
	bannedEdge := make([]bool, g.NumEdges())
	bannedNode := make([]bool, n)
	dijkstra(g, s, h, done, tr, bannedEdge, bannedNode)
	p0, ok := tr.PathTo(g, t)
	if !ok {
		return nil
	}
	accepted := []graph.Path{p0}
	type cand struct {
		path   graph.Path
		weight int64
	}
	var pool []cand
	seen := map[string]bool{pathKey(p0): true}

	for len(accepted) < K {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		// Spur from every vertex of the last accepted path.
		for i := 0; i < len(prev.Edges); i++ {
			root := prev.Edges[:i]
			// Ban edges that would recreate any accepted path sharing this
			// root, and ban root vertices to keep paths simple. The spur
			// vertex is not among them: accepted paths are simple.
			for _, ap := range accepted {
				if len(ap.Edges) > i && equalPrefix(ap.Edges, root, i) {
					bannedEdge[ap.Edges[i]] = true
				}
			}
			for _, v := range prevNodes[:i] {
				bannedNode[v] = true
			}
			dijkstra(g, prevNodes[i], h, done, tr, bannedEdge, bannedNode)
			spur, ok := tr.PathTo(g, t)
			for _, ap := range accepted {
				if len(ap.Edges) > i {
					bannedEdge[ap.Edges[i]] = false
				}
			}
			for _, v := range prevNodes[:i] {
				bannedNode[v] = false
			}
			if !ok {
				continue
			}
			full := graph.Path{Edges: append(append([]graph.EdgeID(nil), root...), spur.Edges...)}
			key := pathKey(full)
			if seen[key] {
				continue
			}
			seen[key] = true
			pool = append(pool, cand{full, full.Cost(g)})
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(a, b int) bool { return pool[a].weight < pool[b].weight })
		accepted = append(accepted, pool[0].path)
		pool = pool[1:]
	}
	return accepted
}

// dijkstra grows the cost shortest-path tree from s into tr, skipping
// banned edges and every edge into a banned vertex; h and done are its
// scratch. Out rows list edge IDs ascending and h pops the least
// (distance, vertex ID), so ties resolve the same way on every run.
func dijkstra(g *graph.Digraph, s graph.NodeID, h *pq.Heap, done []bool, tr Tree, bannedEdge, bannedNode []bool) {
	for v := range tr.Dist {
		tr.Dist[v] = Inf
		tr.Parent[v] = -1
		done[v] = false
	}
	tr.Dist[s] = 0
	h.Reset()
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		done[u] = true
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if done[e.To] || bannedEdge[id] || bannedNode[e.To] {
				continue
			}
			if e.Cost < 0 {
				//lint:allow nopanic nonnegative-cost contract; a violation is a caller bug, not bad input
				panic("shortest: negative cost in Yen's Dijkstra")
			}
			if nd := du + e.Cost; nd < tr.Dist[e.To] { //lint:allow weightovf du is a simple path cost over MaxWeight-capped edges, < 2^61
				tr.Dist[e.To] = nd
				tr.Parent[e.To] = id
				h.Push(int(e.To), nd)
			}
		}
	}
}

func equalPrefix(a []graph.EdgeID, b []graph.EdgeID, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathKey(p graph.Path) string {
	buf := make([]byte, 0, 4*len(p.Edges))
	for _, id := range p.Edges {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}
