package shortest

import (
	"repro/internal/graph"
)

// LinWeight is a linear edge weighting q·cost + p·delay in packed form.
// Every weighting the solver routes on is linear in (cost, delay) — cost,
// delay, the Lagrangian combinations Combine(q, p), and the bicameral
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

// LinCost and LinDelay are the CSR counterparts of CostWeight/DelayWeight.
var (
	LinCost  = LinWeight{Q: 1}
	LinDelay = LinWeight{P: 1}
)

// LinCombine is the CSR counterpart of Combine: q·cost + p·delay.
func LinCombine(q, p int64) LinWeight { return LinWeight{Q: q, P: p} }

// maskedW is the sentinel weight of an excluded edge, matching the
// bicameral engine's masking trick: with all-sources detection every
// tentative distance is ≤ 0 and only decreases, so du + maskedW > 0 can
// never win a relaxation and the edge is effectively deleted without
// touching the graph. Callers guarantee |du| < 2^61 so the sum cannot wrap.
const maskedW = int64(1) << 62

func defaultBudgetCSR(c *graph.CSR) int {
	return 4*c.NumNodes()*c.NumEdges() + 256
}

// DijkstraCSRInto is DijkstraInto over a CSR view: shortest paths from s
// under lw, all selected weights nonnegative (panics otherwise, same
// contract as Dijkstra). Iteration follows the view's CURRENT orientation
// in ascending edge-ID order, which is bit-identical to running DijkstraInto
// on the Digraph the view mirrors.
//
//krsp:noalloc
//krsp:terminates(each vertex finalizes once and the heap holds ≤ m entries)
//krsp:inbounds
func DijkstraCSRInto(ws *Workspace, c *graph.CSR, s graph.NodeID, lw LinWeight) Tree {
	n := c.NumNodes()
	t := ws.tree(n)
	done := ws.done[:n] //lint:allow boundsafe ws.tree(n) grows ws.done to n alongside the tree arrays
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1 //lint:allow boundsafe ws.tree(n) sizes Dist and Parent to the same length
		done[v] = false  //lint:allow boundsafe ws.tree(n) grows ws.done to n alongside the tree arrays
	}
	t.Dist[s] = 0
	h := ws.heap
	h.Reset()
	h.Push(int(s), 0)
	mixed := c.Mixed()
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if done[u] {
			continue
		}
		done[u] = true
		if !mixed {
			// Never-flipped view: OutRow IS the current adjacency.
			for _, id := range c.OutRow(u) {
				to := c.Head(id)
				if done[to] {
					continue
				}
				rw := lw.Of(c.Cost(id), c.Delay(id))
				if rw < 0 {
					//lint:allow nopanic nonnegative-weight contract; a violation is a solver bug, not bad input
					panic("shortest: negative weight in DijkstraCSRInto")
				}
				if nd := du + rw; nd < t.Dist[to] {
					t.Dist[to] = nd
					t.Parent[to] = id
					h.Push(int(to), nd)
				}
			}
			continue
		}
		// Mixed view: merge the non-reversed out row with the reversed in
		// row by ascending edge ID — exactly the Digraph's sorted adjacency.
		outRow, inRow := c.OutRow(u), c.InRow(u)
		i, j := 0, 0
		for {
			for i < len(outRow) && c.Reversed(outRow[i]) {
				i++
			}
			for j < len(inRow) && !c.Reversed(inRow[j]) {
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
			to := c.Head(id)
			if done[to] {
				continue
			}
			rw := lw.Of(c.Cost(id), c.Delay(id))
			if rw < 0 {
				//lint:allow nopanic nonnegative-weight contract; a violation is a solver bug, not bad input
				panic("shortest: negative weight in DijkstraCSRInto")
			}
			if nd := du + rw; nd < t.Dist[to] {
				t.Dist[to] = nd
				t.Parent[to] = id
				h.Push(int(to), nd)
			}
		}
	}
	return t
}

// SPFAAllCSRInto is SPFAAllInto over a CSR view: negative-cycle detection
// from a virtual super-source under lw, with an optional mask — edges whose
// alive entry is false are weighted by the masking sentinel and can never
// relax (a nil mask keeps every edge). Falls back to the pass-based CSR
// Bellman–Ford when the relaxation budget blows, mirroring SPFAAllInto's
// verdict contract (including the conservative "no cycle" on cancellation).
//
//krsp:noalloc
//krsp:inbounds
func SPFAAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	n := c.NumNodes()
	t := ws.tree(n)
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1 //lint:allow boundsafe ws.tree(n) sizes Dist and Parent to the same length
	}
	tree, cyc, ok, done := spfaCSRCore(ws, c, lw, alive, t, defaultBudgetCSR(c))
	if done {
		return tree, cyc, ok
	}
	if ws.cancel.Stopped() {
		return tree, graph.Cycle{}, true // cancelled: see Workspace.SetCancel
	}
	return BellmanFordAllCSRInto(ws, c, lw, alive)
}

// spfaCSRCore is spfaCore over a CSR view (all-sources seeding only, which
// is the solve-path shape). Relaxation order, budget accounting, the queue
// links, the parent-walk schedule and cycle extraction all mirror spfaCore
// exactly.
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
	relaxations, sinceWalk, walk := 0, 0, 0
	for first >= 0 {
		if ws.cancel.Poll() {
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
					if at, cyclic := parentWalkCSR(c, t.Parent, stamp, &walk); cyclic {
						ws.recordSPFA(relaxations, true)
						return t, extractParentCycleCSR(c, t.Parent, at), false, true
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

// BellmanFordAllCSRInto is BellmanFordAllInto over a CSR view with the same
// optional mask as SPFAAllCSRInto. The per-pass edge scan walks IDs
// ascending in current orientation — identical to bfCore's EdgesView scan.
//
//krsp:noalloc
//krsp:inbounds
func BellmanFordAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	n := c.NumNodes()
	t := ws.tree(n)
	for v := range t.Dist {
		t.Dist[v] = 0
		t.Parent[v] = -1 //lint:allow boundsafe ws.tree(n) sizes Dist and Parent to the same length
	}
	m := c.NumEdges()
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
	v := lastRelaxed
	for i := 0; i < n; i++ {
		v = c.Tail(t.Parent[v])
	}
	return t, extractParentCycleCSR(c, t.Parent, v), false
}

// parentWalkCSR is parentWalk over a CSR view.
//
//krsp:terminates(each vertex is stamped at most once per walk, so the chains total ≤ n steps)
func parentWalkCSR(c *graph.CSR, parent []graph.EdgeID, stamp []int, walk *int) (graph.NodeID, bool) {
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

// extractParentCycleCSR is extractParentCycle over a CSR view.
//
//krsp:terminates(parent-pointer cycle is vertex-simple, so the walk closes within n steps)
func extractParentCycleCSR(c *graph.CSR, parent []graph.EdgeID, start graph.NodeID) graph.Cycle {
	length := 1
	for v := c.Tail(parent[start]); v != start; v = c.Tail(parent[v]) {
		length++
	}
	edges := make([]graph.EdgeID, length) //lint:allow contracts one allocation per extracted cycle, the returned edge slice; witnessed by TestSPFAAllocs
	v := start
	for i := length - 1; i >= 0; i-- {
		edges[i] = parent[v]
		v = c.Tail(parent[v])
	}
	return graph.Cycle{Edges: edges}
}
