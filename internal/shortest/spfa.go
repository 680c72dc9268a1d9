package shortest

import (
	"repro/internal/graph"
)

// SPFA is the queue-based Bellman–Ford variant (Shortest Path Faster
// Algorithm). Semantics match BellmanFord: shortest paths from s under w
// with negative weights allowed; if a negative cycle is reachable it is
// returned with ok=false. Typically much faster than the classic pass-based
// scan on sparse graphs, which matters because the bicameral search runs
// negative-cycle detection on large layered graphs.
func SPFA(g *graph.Digraph, s graph.NodeID, w Weight) (Tree, graph.Cycle, bool) {
	return SPFAInto(NewWorkspace(g.NumNodes()), g, s, w)
}

// SPFAInto is SPFA over caller-provided scratch. The returned Tree aliases
// the workspace (see Workspace).
//
//krsp:noalloc
func SPFAInto(ws *Workspace, g *graph.Digraph, s graph.NodeID, w Weight) (Tree, graph.Cycle, bool) {
	n := g.NumNodes()
	t := ws.tree(n)
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	t.Dist[s] = 0
	tree, cyc, ok, done := spfaCore(ws, g, w, t, s, true, defaultBudget(g))
	if done {
		return tree, cyc, ok
	}
	if ws.cancel.Stopped() {
		// Cancelled mid-run: report "no cycle" rather than continue into
		// the fallback scan. See Workspace.SetCancel for the contract.
		return tree, graph.Cycle{}, true
	}
	// Relaxation budget blown without a certified verdict (possible when a
	// negative cycle keeps the parent graph acyclic at every periodic
	// walk): fall back to the pass-based scan, which always terminates with
	// a proof.
	return BellmanFordInto(ws, g, s, w)
}

// SPFAAll runs SPFA from a virtual super-source (all distances start at 0),
// detecting a negative cycle anywhere in the graph; on success the
// distances are valid potentials.
func SPFAAll(g *graph.Digraph, w Weight) (Tree, graph.Cycle, bool) {
	return SPFAAllInto(NewWorkspace(g.NumNodes()), g, w)
}

// SPFAAllInto is SPFAAll over caller-provided scratch. The returned Tree
// aliases the workspace (see Workspace).
//
//krsp:noalloc
func SPFAAllInto(ws *Workspace, g *graph.Digraph, w Weight) (Tree, graph.Cycle, bool) {
	n := g.NumNodes()
	t := ws.tree(n)
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1
	}
	tree, cyc, ok, done := spfaCore(ws, g, w, t, 0, false, defaultBudget(g))
	if done {
		return tree, cyc, ok
	}
	if ws.cancel.Stopped() {
		return tree, graph.Cycle{}, true // cancelled: see Workspace.SetCancel
	}
	return BellmanFordAllInto(ws, g, w)
}

func defaultBudget(g *graph.Digraph) int {
	return 4*g.NumNodes()*g.NumEdges() + 256
}

// SPFAAllBounded is negative-cycle detection with an explicit relaxation
// budget and no exact-distance promise: it returns (cycle, true, true) on
// detection, (_, false, true) when the graph is certified cycle-free, and
// (_, false, false) when the budget ran out first (no verdict). Large
// derived graphs (the layered auxiliary graphs) use it to keep worst-case
// time linear in the budget instead of O(V·E).
func SPFAAllBounded(g *graph.Digraph, w Weight, budget int) (graph.Cycle, bool, bool) {
	return SPFAAllBoundedInto(NewWorkspace(g.NumNodes()), g, w, budget)
}

// SPFAAllBoundedInto is SPFAAllBounded over caller-provided scratch.
//
//krsp:noalloc
func SPFAAllBoundedInto(ws *Workspace, g *graph.Digraph, w Weight, budget int) (graph.Cycle, bool, bool) {
	n := g.NumNodes()
	t := ws.tree(n)
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1
	}
	_, cyc, ok, done := spfaCore(ws, g, w, t, 0, false, budget)
	if !done {
		return graph.Cycle{}, false, false
	}
	return cyc, !ok, true
}

// spfaCore returns done=false when its relaxation budget is exhausted
// before reaching a certified verdict; callers then fall back to the
// pass-based Bellman–Ford (or accept the non-verdict). With single=true the
// queue is seeded with s alone; otherwise every vertex is seeded (the
// virtual super-source).
//
// The FIFO is a singly linked list threaded through the workspace links
// (see notQueued): a vertex is queued at most once, so n links always
// suffice and the queue never allocates. Negative cycles are found by
// searching the parent graph after every n improving relaxations
// (parentWalk) — an O(n) walk per n relaxations, so detection costs
// amortized O(1) per relaxation. Every parent-graph cycle is negative, so a
// hit is returned as-is.
func spfaCore(ws *Workspace, g *graph.Digraph, w Weight, t Tree, s graph.NodeID, single bool, budget int) (Tree, graph.Cycle, bool, bool) {
	n := g.NumNodes()
	next, stamp := ws.resetQueue(n)
	first, last := queueEnd, queueEnd
	if single {
		first, last = s, s
		next[s] = queueEnd
	} else if n > 0 {
		for v := range next {
			next[v] = graph.NodeID(v + 1)
		}
		first, last = 0, graph.NodeID(n-1)
		next[last] = queueEnd
	}
	relaxations, sinceWalk, walk := 0, 0, 0
	for first >= 0 {
		if ws.cancel.Poll() {
			// Cancelled: no verdict. Callers distinguish this from budget
			// exhaustion via Canceller.Stopped (see Workspace.SetCancel).
			ws.recordSPFA(relaxations, false)
			return t, graph.Cycle{}, false, false
		}
		u := first
		first, next[u] = next[u], notQueued
		du := t.Dist[u]
		if du == Inf {
			continue
		}
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if nd := du + w(e); nd < t.Dist[e.To] { //lint:allow weightovf finite Dist is a <n edge path sum, |nd| < n*MaxWeight < 2^47
				budget--
				relaxations++
				if budget < 0 {
					ws.recordSPFA(relaxations, false)
					return t, graph.Cycle{}, false, false
				}
				t.Dist[e.To] = nd
				t.Parent[e.To] = id
				if sinceWalk++; sinceWalk == n {
					sinceWalk = 0
					if at, cyclic := parentWalk(g, t.Parent, stamp, &walk); cyclic {
						ws.recordSPFA(relaxations, true)
						return t, extractParentCycle(g, t.Parent, at), false, true
					}
				}
				if next[e.To] == notQueued {
					next[e.To] = queueEnd
					if first < 0 {
						first = e.To
					} else {
						next[last] = e.To
					}
					last = e.To
				}
			}
		}
	}
	ws.recordSPFA(relaxations, false)
	return t, graph.Cycle{}, true, true
}

// parentWalk searches the parent graph for a cycle in one O(n) pass. Each
// chain is followed rootward from a vertex not yet visited by this walk and
// stamped with a fresh id above *walk, the last id handed out by earlier
// walks: meeting the chain's own id again closes a cycle (the returned
// vertex lies on it), while meeting an older id of this walk or a root ends
// the chain. Ids only grow, so stamps need no clearing between walks; the
// walk advances *walk past the ids it used.
//
//krsp:terminates(each vertex is stamped at most once per walk, so the chains total ≤ n steps)
func parentWalk(g *graph.Digraph, parent []graph.EdgeID, stamp []int, walk *int) (graph.NodeID, bool) {
	base := *walk
	for v := range parent {
		if stamp[v] > base {
			continue
		}
		*walk++
		id := *walk
		u := graph.NodeID(v)
		for {
			stamp[u] = id
			if parent[u] < 0 {
				break
			}
			u = g.Edge(parent[u]).From
			if stamp[u] == id {
				return u, true
			}
			if stamp[u] > base {
				break
			}
		}
	}
	return 0, false
}
