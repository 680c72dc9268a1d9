package shortest

import (
	"repro/internal/graph"
)

// LinWeight is a linear edge weighting q·cost + p·delay in packed form.
// Every weighting the solver routes on is linear in (cost, delay) — cost,
// delay, the Lagrangian combinations LinCombine(q, p), and the bicameral
// lexicographic weights — so CSR kernels take a LinWeight instead of a
// Weight closure: two multiplies against the packed arrays replace an
// indirect call per edge, and two's-complement distributivity makes the
// evaluation bitwise identical to the closure it replaces even at the
// overflow margins the masking sentinel lives near.
type LinWeight struct {
	Q int64 // cost coefficient
	P int64 // delay coefficient
}

// Of evaluates the weighting on an edge's (cost, delay).
func (lw LinWeight) Of(cost, delay int64) int64 {
	return lw.Q*cost + lw.P*delay //lint:allow weightovf exact λ=p/q search; callers keep |p|,|q|·MaxWeight in range
}

// LinCost and LinDelay route on edge cost and on edge delay.
var (
	LinCost  = LinWeight{Q: 1}
	LinDelay = LinWeight{P: 1}
)

// LinCombine returns the weighting q·cost + p·delay; exact integer
// arithmetic for Lagrangian searches with rational multiplier λ = p/q.
func LinCombine(q, p int64) LinWeight { return LinWeight{Q: q, P: p} }

// maskedW is the sentinel weight of an excluded edge, matching the
// bicameral engine's masking trick: with all-sources detection every
// tentative distance is ≤ 0 and only decreases, so du + maskedW > 0 can
// never win a relaxation and the edge is effectively deleted without
// touching the graph. Callers guarantee |du| < 2^61 so the sum cannot wrap.
const maskedW = int64(1) << 62

func defaultBudget(c *graph.CSR) int {
	return 4*c.NumNodes()*c.NumEdges() + 256
}

// SPFAAllCSRInto is negative-cycle detection from a virtual super-source
// (all distances start at 0) under lw — the queue-based Bellman–Ford
// variant, typically far faster than the pass-based scan on sparse graphs.
// It takes an optional mask: edges whose alive entry is false are weighted
// by the masking sentinel and can never relax (a nil mask keeps every
// edge). On ok=true the distances are valid potentials; on ok=false the
// returned cycle is vertex-simple and strictly negative. Falls back to the
// pass-based Bellman–Ford when the relaxation budget blows, and reports a
// conservative "no cycle" on cancellation (see Workspace.SetCancel). The
// returned Tree aliases the workspace.
//
//krsp:noalloc
//krsp:inbounds
func SPFAAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	tree, cyc, ok, done := spfaCSRCore(ws, c, lw, alive, ws.allSources(c.NumNodes()), defaultBudget(c))
	if done {
		return tree, cyc, ok
	}
	if ws.cancel.Stopped() {
		return tree, graph.Cycle{}, true // cancelled: see Workspace.SetCancel
	}
	return BellmanFordAllCSRInto(ws, c, lw, alive)
}

// SPFAAllBoundedCSRInto is negative-cycle detection with an explicit
// relaxation budget and no exact-distance promise: it returns (cycle, true,
// true) on detection, (_, false, true) when the graph is certified
// cycle-free, and (_, false, false) when the budget ran out (or the
// workspace's Canceller stopped) first — no verdict. Large derived graphs
// (the layered auxiliary graphs) use it to keep worst-case time linear in
// the budget instead of O(V·E).
//
//krsp:noalloc
//krsp:inbounds
func SPFAAllBoundedCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, budget int) (graph.Cycle, bool, bool) {
	_, cyc, ok, done := spfaCSRCore(ws, c, lw, nil, ws.allSources(c.NumNodes()), budget)
	if !done {
		return graph.Cycle{}, false, false
	}
	return cyc, !ok, true
}

// spfaCSRCore returns done=false when its relaxation budget is exhausted
// (or the Canceller stops) before a certified verdict; callers then fall
// back to the pass-based Bellman–Ford or accept the non-verdict. Every
// vertex is seeded, in ascending order (the virtual super-source).
//
// The FIFO is a singly linked list threaded through the workspace links
// (see notQueued): a vertex is queued at most once, so n links always
// suffice and the queue never allocates. Negative cycles are found by
// searching the parent graph after every n improving relaxations
// (parentWalk) — an O(n) walk per n relaxations, so detection costs
// amortized O(1) per relaxation. Every parent-graph cycle is negative, so a
// hit is returned as-is.
//
//krsp:inbounds
func spfaCSRCore(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool, t Tree, budget int) (Tree, graph.Cycle, bool, bool) {
	n := c.NumNodes()
	next, stamp := ws.resetQueue(n)
	first, last := queueEnd, queueEnd
	if n > 0 {
		for v := range next {
			next[v] = graph.NodeID(v + 1)
		}
		first, last = 0, graph.NodeID(n-1)
		next[last] = queueEnd
	}
	// An unflipped view (a layered graph) has no reversed in-row entries:
	// skip the in-row half of the merge outright.
	mixed := c.Mixed()
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
		outRow, inRow := c.OutRow(u), c.InRow(u)
		if !mixed {
			inRow = nil
		}
		i, j := 0, 0
		for { //lint:allow ctxpoll bounded row merge: ≤ deg(u) steps, and the dequeue loop above polls once per vertex
			for i < len(outRow) && c.Reversed(outRow[i]) {
				i++
			}
			for j < len(inRow) && !c.Reversed(inRow[j]) { //lint:allow ctxpoll cursor only advances: ≤ len(inRow) steps total across the merge
				j++
			}
			var id graph.EdgeID
			if i < len(outRow) && (j >= len(inRow) || outRow[i] < inRow[j]) {
				id = outRow[i]
				i++
			} else if j < len(inRow) {
				id = inRow[j]
				j++
			} else {
				break
			}
			w := lw.Of(c.Cost(id), c.Delay(id))
			if alive != nil && !alive[id] {
				w = maskedW
			}
			to := c.Head(id)
			if nd := du + w; nd < t.Dist[to] {
				budget--
				relaxations++
				if budget < 0 {
					ws.recordSPFA(relaxations, false)
					return t, graph.Cycle{}, false, false
				}
				t.Dist[to] = nd
				t.Parent[to] = id
				if sinceWalk++; sinceWalk == n {
					sinceWalk = 0
					if at, cyclic := parentWalk(c, t.Parent, stamp, &walk); cyclic {
						ws.recordSPFA(relaxations, true)
						return t, extractParentCycle(c, t.Parent, at), false, true
					}
				}
				if next[to] == notQueued {
					next[to] = queueEnd
					if first < 0 {
						first = to
					} else {
						next[last] = to
					}
					last = to
				}
			}
		}
	}
	ws.recordSPFA(relaxations, false)
	return t, graph.Cycle{}, true, true
}

// BellmanFordCSRInto computes shortest paths from s under lw with the
// pass-based Bellman–Ford scan, allowing negative weights. If a negative
// cycle is reachable from s, ok=false and the cycle is returned; otherwise
// ok=true. The returned Tree aliases the workspace.
//
//krsp:noalloc
//krsp:inbounds
func BellmanFordCSRInto(ws *Workspace, c *graph.CSR, s graph.NodeID, lw LinWeight) (Tree, graph.Cycle, bool) {
	t := ws.allSources(c.NumNodes())
	for v := range t.Dist {
		t.Dist[v] = Inf
	}
	t.Dist[s] = 0
	return bellmanFord(ws, c, lw, nil, t)
}

// BellmanFordAllCSRInto is Bellman–Ford from a virtual super-source
// connected to every vertex with weight 0, with the same optional mask as
// SPFAAllCSRInto. It detects a negative cycle anywhere in the graph;
// otherwise the distances are valid potentials: dist[v] ≤ dist[u] + w(u→v)
// for every edge.
//
//krsp:noalloc
//krsp:inbounds
func BellmanFordAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	return bellmanFord(ws, c, lw, alive, ws.allSources(c.NumNodes()))
}

// bellmanFord runs up to n passes over the edges in ascending ID order
// (current orientation) from the initial distances in t. A relaxation in
// the n-th pass proves a negative cycle, which is then extracted from the
// parent pointers. Cancellation between passes returns a conservative "no
// cycle" (see Workspace.SetCancel).
//
//krsp:inbounds
func bellmanFord(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool, t Tree) (Tree, graph.Cycle, bool) {
	n, m := c.NumNodes(), c.NumEdges()
	var lastRelaxed graph.NodeID = -1
	for pass := 0; pass < n; pass++ {
		if ws.cancel.Check() {
			return t, graph.Cycle{}, true // cancelled: conservative "no cycle"
		}
		changed := false
		for i := 0; i < m; i++ {
			id := graph.EdgeID(i)
			from := c.Tail(id)
			if t.Dist[from] == Inf {
				continue
			}
			w := lw.Of(c.Cost(id), c.Delay(id))
			if alive != nil && !alive[id] {
				w = maskedW
			}
			if nd := t.Dist[from] + w; nd < t.Dist[c.Head(id)] { //lint:allow weightovf finite Dist is a <=n-1 edge path sum and |du| < 2^61 under masking, so nd cannot wrap
				to := c.Head(id)
				t.Dist[to] = nd
				t.Parent[to] = id
				changed = true
				lastRelaxed = to
			}
		}
		if !changed {
			return t, graph.Cycle{}, true
		}
	}
	// Walk parents n times from the last relaxed vertex to be sure to stand
	// on the cycle, then extract it.
	v := lastRelaxed
	for i := 0; i < n; i++ {
		v = c.Tail(t.Parent[v])
	}
	return t, extractParentCycle(c, t.Parent, v), false
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
func parentWalk(c *graph.CSR, parent []graph.EdgeID, stamp []int, walk *int) (graph.NodeID, bool) {
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
			u = c.Tail(parent[u])
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

// extractParentCycle follows parent edges from a vertex known to lie on a
// parent-pointer cycle and returns that cycle in forward edge order.
//
//krsp:terminates(parent-pointer cycle is vertex-simple, so the walk closes within n steps)
func extractParentCycle(c *graph.CSR, parent []graph.EdgeID, start graph.NodeID) graph.Cycle {
	length := 1
	for v := c.Tail(parent[start]); v != start; v = c.Tail(parent[v]) {
		length++
	}
	// Fill back to front: walking parents visits the cycle's edges in
	// reverse, so the slice comes out in forward order ending at start.
	edges := make([]graph.EdgeID, length) //lint:allow contracts one allocation per extracted cycle, the returned edge slice; witnessed by TestSPFAAllocs
	v := start
	for i := length - 1; i >= 0; i-- {
		edges[i] = parent[v]
		v = c.Tail(parent[v])
	}
	return graph.Cycle{Edges: edges}
}
