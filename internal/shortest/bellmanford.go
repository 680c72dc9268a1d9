package shortest

import (
	"repro/internal/graph"
)

// BellmanFord computes shortest paths from s under w, allowing negative
// weights. If a negative cycle is reachable from s, ok=false and the cycle
// is returned; otherwise ok=true and cycle is empty.
func BellmanFord(g *graph.Digraph, s graph.NodeID, w Weight) (t Tree, cycle graph.Cycle, ok bool) {
	return BellmanFordInto(NewWorkspace(g.NumNodes()), g, s, w)
}

// BellmanFordInto is BellmanFord over caller-provided scratch. The returned
// Tree aliases the workspace (see Workspace).
//
//krsp:noalloc
func BellmanFordInto(ws *Workspace, g *graph.Digraph, s graph.NodeID, w Weight) (Tree, graph.Cycle, bool) {
	t := ws.tree(g.NumNodes())
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	t.Dist[s] = 0
	return bfCore(ws, g, w, t)
}

// BellmanFordAll runs Bellman–Ford from a virtual super-source connected to
// every vertex with weight 0 (all initial distances zero). It detects a
// negative cycle anywhere in the graph; otherwise the distances form valid
// potentials: dist[v] ≤ dist[u] + w(u→v) for every edge.
func BellmanFordAll(g *graph.Digraph, w Weight) (t Tree, cycle graph.Cycle, ok bool) {
	return BellmanFordAllInto(NewWorkspace(g.NumNodes()), g, w)
}

// BellmanFordAllInto is BellmanFordAll over caller-provided scratch. The
// returned Tree aliases the workspace (see Workspace).
//
//krsp:noalloc
func BellmanFordAllInto(ws *Workspace, g *graph.Digraph, w Weight) (Tree, graph.Cycle, bool) {
	t := ws.tree(g.NumNodes())
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1
	}
	return bfCore(ws, g, w, t)
}

func bfCore(ws *Workspace, g *graph.Digraph, w Weight, t Tree) (Tree, graph.Cycle, bool) {
	n := g.NumNodes()
	edges := g.EdgesView()
	var lastRelaxed graph.NodeID = -1
	for pass := 0; pass < n; pass++ {
		if ws.cancel.Check() {
			// Cancelled between passes: conservative "no cycle" verdict;
			// solve-path callers re-check the Canceller (SetCancel contract).
			return t, graph.Cycle{}, true
		}
		changed := false
		for _, e := range edges {
			if t.Dist[e.From] == Inf {
				continue
			}
			if nd := t.Dist[e.From] + w(e); nd < t.Dist[e.To] { //lint:allow weightovf finite Dist is a <=n-1 edge path sum, |nd| < n*MaxWeight < 2^47
				t.Dist[e.To] = nd
				t.Parent[e.To] = e.ID
				changed = true
				lastRelaxed = e.To
			}
		}
		if !changed {
			return t, graph.Cycle{}, true
		}
	}
	// A relaxation happened in the n-th pass: a negative cycle exists.
	// Walk parents n times from the last relaxed vertex to guarantee we are
	// on the cycle, then extract it.
	v := lastRelaxed
	for i := 0; i < n; i++ {
		v = g.Edge(t.Parent[v]).From
	}
	cyc := extractParentCycle(g, t.Parent, v)
	return t, cyc, false
}

// extractParentCycle follows parent edges from a vertex known to lie on a
// parent-pointer cycle and returns that cycle in forward edge order.
//
//krsp:terminates(parent-pointer cycle is vertex-simple, so the walk closes within n steps)
func extractParentCycle(g *graph.Digraph, parent []graph.EdgeID, start graph.NodeID) graph.Cycle {
	length := 1
	for v := g.Edge(parent[start]).From; v != start; v = g.Edge(parent[v]).From {
		length++
	}
	// Fill back to front: walking parents visits the cycle's edges in
	// reverse, so the slice comes out in forward order ending at start.
	edges := make([]graph.EdgeID, length) //lint:allow contracts one allocation per extracted cycle, the returned edge slice; witnessed by TestSPFAAllocs
	v := start
	for i := length - 1; i >= 0; i-- {
		edges[i] = parent[v]
		v = g.Edge(parent[v]).From
	}
	return graph.Cycle{Edges: edges}
}

// NegativeCycle finds any negative-weight cycle in g under w, returning
// found=false if none exists. When found, the returned cycle is extracted
// from Bellman–Ford parent pointers, has strictly negative total weight,
// and is vertex-simple.
func NegativeCycle(g *graph.Digraph, w Weight) (graph.Cycle, bool) {
	return NegativeCycleInto(NewWorkspace(g.NumNodes()), g, w)
}

// NegativeCycleInto is NegativeCycle over caller-provided scratch.
//
//krsp:noalloc
func NegativeCycleInto(ws *Workspace, g *graph.Digraph, w Weight) (graph.Cycle, bool) {
	_, cyc, ok := BellmanFordAllInto(ws, g, w)
	if ok {
		return graph.Cycle{}, false
	}
	return cyc, true
}

// Potentials returns node potentials π with π[v] ≤ π[u] + w(u→v) for every
// edge (so reduced weights are nonnegative), or found=false if g has a
// negative cycle under w. Unreachable is impossible here since the virtual
// super-source reaches everything.
func Potentials(g *graph.Digraph, w Weight) ([]int64, bool) {
	return PotentialsInto(NewWorkspace(g.NumNodes()), g, w)
}

// PotentialsInto is Potentials over caller-provided scratch. The returned
// slice aliases the workspace (see Workspace).
//
//krsp:noalloc
func PotentialsInto(ws *Workspace, g *graph.Digraph, w Weight) ([]int64, bool) {
	t, _, ok := BellmanFordAllInto(ws, g, w)
	if !ok {
		return nil, false
	}
	return t.Dist, true
}
