package flow

import (
	"fmt"

	"repro/internal/graph"
)

// Decompose splits a unit flow (edge set where every edge carries one unit)
// into k edge-disjoint s→t paths plus a set of edge-disjoint cycles
// covering the remaining flow edges. It errors if the edge set does not
// satisfy flow conservation with net outflow k at s and net inflow k at t.
//
//krsp:terminates(every pop consumes one of ≤ m available edges, and each walk is budget-checked against the edge count)
func Decompose(g *graph.Digraph, edges graph.EdgeSet, s, t graph.NodeID, k int) ([]graph.Path, []graph.Cycle, error) {
	// Per-vertex unused outgoing flow edges. Maps keep the footprint
	// proportional to the flow (not the graph); every scan below resolves
	// ties by minimum vertex ID so nothing depends on map iteration order.
	outAvail := make(map[graph.NodeID][]graph.EdgeID)
	balance := make(map[graph.NodeID]int)
	for _, id := range edges.IDs() {
		e := g.Edge(id)
		outAvail[e.From] = append(outAvail[e.From], id)
		balance[e.From]++
		balance[e.To]--
	}
	bad := graph.NodeID(-1)
	//lint:allow detmap min-selection over the range is order-insensitive
	for v, b := range balance {
		want := 0
		switch v {
		case s:
			want = k
		case t:
			want = -k
		}
		if b != want && (bad < 0 || v < bad) {
			bad = v
		}
	}
	switch {
	case bad == s && bad >= 0:
		return nil, nil, fmt.Errorf("flow: source balance %d, want %d", balance[s], k)
	case bad == t && bad >= 0:
		return nil, nil, fmt.Errorf("flow: sink balance %d, want %d", balance[t], -k)
	case bad >= 0:
		return nil, nil, fmt.Errorf("flow: vertex %d unbalanced (%d)", bad, balance[bad])
	}
	if k > 0 && balance[s] != k {
		return nil, nil, fmt.Errorf("flow: source missing outflow")
	}

	pop := func(v graph.NodeID) (graph.EdgeID, bool) {
		avail := outAvail[v]
		if len(avail) == 0 {
			return -1, false
		}
		id := avail[len(avail)-1]
		outAvail[v] = avail[:len(avail)-1]
		return id, true
	}

	// Peel k s→t paths. Walks may pass through cycles; since every edge is
	// consumed exactly once and balances hold, each walk must terminate at
	// t. We record the walk then shortcut repeated vertices so returned
	// paths are edge sequences without repeated edges (possibly repeated
	// vertices, which Solution.Validate allows); the shortcut edges rejoin
	// the cycle pool.
	var paths []graph.Path
	for i := 0; i < k; i++ {
		var walk []graph.EdgeID
		cur := s
		for cur != t {
			id, ok := pop(cur)
			if !ok {
				return nil, nil, fmt.Errorf("flow: walk from source stuck at %d", cur)
			}
			walk = append(walk, id)
			cur = g.Edge(id).To
			if len(walk) > edges.Len() {
				return nil, nil, fmt.Errorf("flow: walk exceeded edge budget (corrupt flow)")
			}
		}
		path, loops := shortcutWalk(g, walk, s)
		// Loops removed from the walk are flow cycles: return their edges
		// to the availability pool so the cycle-peeling phase picks them up.
		for _, loop := range loops {
			for _, id := range loop {
				e := g.Edge(id)
				outAvail[e.From] = append(outAvail[e.From], id)
			}
		}
		paths = append(paths, path)
	}

	// Peel remaining edges into cycles.
	var cycles []graph.Cycle
	for {
		start := graph.NodeID(-1)
		//lint:allow detmap min-selection over the range is order-insensitive
		for v, avail := range outAvail {
			if len(avail) > 0 && (start < 0 || v < start) {
				start = v
			}
		}
		if start < 0 {
			break
		}
		var walk []graph.EdgeID
		cur := start
		for {
			id, ok := pop(cur)
			if !ok {
				return nil, nil, fmt.Errorf("flow: cycle walk stuck at %d", cur)
			}
			walk = append(walk, id)
			cur = g.Edge(id).To
			if cur == start {
				break
			}
			if len(walk) > edges.Len() {
				return nil, nil, fmt.Errorf("flow: cycle walk exceeded edge budget")
			}
		}
		// The closed walk may itself contain sub-cycles; split into simple
		// cycles for deterministic downstream handling.
		cycles = append(cycles, SplitClosedWalk(g, walk)...)
	}
	return paths, cycles, nil
}

// shortcutWalk removes vertex-repeating loops from an s→… walk, returning
// the loop-free path and the removed loops (each a closed edge sequence).
func shortcutWalk(g *graph.Digraph, walk []graph.EdgeID, s graph.NodeID) (graph.Path, [][]graph.EdgeID) {
	var loops [][]graph.EdgeID
	prefix := make([]graph.EdgeID, 0, len(walk))
	lastAt := map[graph.NodeID]int{s: 0} // vertex → len(prefix) when last visited
	cur := s
	for _, id := range walk {
		prefix = append(prefix, id)
		cur = g.Edge(id).To
		if at, seen := lastAt[cur]; seen {
			loop := append([]graph.EdgeID(nil), prefix[at:]...)
			loops = append(loops, loop)
			prefix = prefix[:at]
			// Invalidate lastAt entries beyond the cut.
			for v, pos := range lastAt {
				if pos > at {
					delete(lastAt, v)
				}
			}
		} else {
			lastAt[cur] = len(prefix)
		}
	}
	return graph.Path{Edges: prefix}, loops
}

// SplitClosedWalk splits a closed walk (edge sequence returning to its
// start) of g — a Digraph or a CSR view — into vertex-simple cycles.
func SplitClosedWalk(g graph.Endpoints, walk []graph.EdgeID) []graph.Cycle {
	if len(walk) == 0 {
		return nil
	}
	var out []graph.Cycle
	var stackEdges []graph.EdgeID
	stackPos := map[graph.NodeID]int{}
	start := g.Tail(walk[0])
	stackPos[start] = 0
	cur := start
	for _, id := range walk {
		stackEdges = append(stackEdges, id)
		cur = g.Head(id)
		if at, seen := stackPos[cur]; seen {
			cyc := append([]graph.EdgeID(nil), stackEdges[at:]...)
			out = append(out, graph.Cycle{Edges: cyc})
			for v, pos := range stackPos {
				if pos > at {
					delete(stackPos, v)
				}
			}
			stackEdges = stackEdges[:at]
		} else {
			stackPos[cur] = len(stackEdges)
		}
	}
	return out
}
