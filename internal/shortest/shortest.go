// Package shortest implements the single-criterion shortest-path substrate:
// BFS, Dijkstra with potentials, SPFA and Bellman–Ford negative-cycle
// detection with cycle extraction, Karp's minimum mean cycle, Yen's k
// shortest paths, and a bicriteria Pareto frontier enumerator. Digraph
// algorithms take an edge-weight closure (Weight); the solve-path kernels
// run over a graph.CSR view with a packed linear weighting (LinWeight).
// Either way callers route on cost, delay, or integer combinations
// q·c + p·d.
package shortest

import (
	"math"

	"repro/internal/graph"
)

// Inf is the sentinel distance for unreachable vertices.
const Inf = math.MaxInt64

// Weight selects the routing weight of an edge.
type Weight func(e graph.Edge) int64

// CostWeight routes on edge cost.
func CostWeight(e graph.Edge) int64 { return e.Cost }

// DelayWeight routes on edge delay.
func DelayWeight(e graph.Edge) int64 { return e.Delay }

// Combine returns the weight q·cost + p·delay; exact integer arithmetic for
// Lagrangian searches with rational multiplier λ = p/q.
func Combine(q, p int64) Weight {
	return func(e graph.Edge) int64 { return q*e.Cost + p*e.Delay } //lint:allow weightovf exact λ=p/q search; callers keep |p|,|q|·MaxWeight in range
}

// Tree is a shortest-path tree: Dist[v] is the distance from the source
// (Inf if unreachable) and Parent[v] is the tree edge entering v (-1 at the
// source and at unreachable vertices).
type Tree struct {
	Dist   []int64
	Parent []graph.EdgeID
}

// PathTo reconstructs the tree path from the source to v, or nil if v is
// unreachable. g is the graph (Digraph or CSR view) the tree was grown on.
func (t Tree) PathTo(g graph.Endpoints, v graph.NodeID) (graph.Path, bool) {
	if t.Dist[v] == Inf {
		return graph.Path{}, false
	}
	var rev []graph.EdgeID
	for t.Parent[v] >= 0 {
		id := t.Parent[v]
		rev = append(rev, id)
		v = g.Tail(id)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return graph.Path{Edges: rev}, true
}

// BFS returns hop distances from s (Inf if unreachable) and parent edges.
func BFS(g *graph.Digraph, s graph.NodeID) Tree {
	n := g.NumNodes()
	t := Tree{Dist: make([]int64, n), Parent: make([]graph.EdgeID, n)}
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	t.Dist[s] = 0
	queue := []graph.NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if t.Dist[e.To] == Inf {
				t.Dist[e.To] = t.Dist[u] + 1
				t.Parent[e.To] = id
				queue = append(queue, e.To)
			}
		}
	}
	return t
}

// Dijkstra computes shortest paths from s under w. All selected weights
// must be nonnegative; the function panics on a negative weight since that
// would silently produce wrong answers.
func Dijkstra(g *graph.Digraph, s graph.NodeID, w Weight) Tree {
	return DijkstraPotentials(g, s, w, nil)
}

// DijkstraPotentials computes shortest paths under the reduced weight
// w(e) + pot[From] − pot[To] (Johnson's technique), returning distances in
// the ORIGINAL weight. pot may be nil for plain Dijkstra. Reduced weights
// must be nonnegative; vertices with pot[v] == Inf are treated as removed.
func DijkstraPotentials(g *graph.Digraph, s graph.NodeID, w Weight, pot []int64) Tree {
	return DijkstraPotentialsInto(NewWorkspace(g.NumNodes()), g, s, w, pot)
}

// DijkstraInto is Dijkstra over caller-provided scratch. The returned Tree
// aliases the workspace (see Workspace).
//
//krsp:noalloc
func DijkstraInto(ws *Workspace, g *graph.Digraph, s graph.NodeID, w Weight) Tree {
	return DijkstraPotentialsInto(ws, g, s, w, nil)
}

// DijkstraPotentialsInto is DijkstraPotentials over caller-provided
// scratch. The returned Tree aliases the workspace (see Workspace).
//
//krsp:noalloc
//krsp:terminates(each vertex finalizes once and the heap holds ≤ m entries)
func DijkstraPotentialsInto(ws *Workspace, g *graph.Digraph, s graph.NodeID, w Weight, pot []int64) Tree {
	n := g.NumNodes()
	t := ws.tree(n)
	done := ws.done[:n]
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
		done[v] = false
	}
	if pot != nil && pot[s] == Inf {
		return t
	}
	// dist here is in reduced weights; convert on exit.
	t.Dist[s] = 0
	h := ws.heap
	h.Reset()
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if done[u] {
			continue
		}
		done[u] = true
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if done[e.To] {
				continue
			}
			rw := w(e)
			if pot != nil {
				if pot[e.To] == Inf {
					continue // unreachable in potential graph: skip
				}
				rw += pot[e.From] - pot[e.To]
			}
			if rw < 0 {
				//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
				panic("shortest: negative reduced weight in Dijkstra")
			}
			nd := du + rw
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Parent[e.To] = id
				h.Push(int(e.To), nd)
			}
		}
	}
	if pot != nil {
		for v := range t.Dist {
			if t.Dist[v] != Inf {
				t.Dist[v] += pot[v] - pot[s] //lint:allow weightovf de-reduction: Dist and potentials are path sums under n*MaxWeight < 2^47
			}
		}
	}
	return t
}

// Topological returns a topological order of g, or ok=false if g has a
// cycle.
func Topological(g *graph.Digraph) (order []graph.NodeID, ok bool) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for _, e := range g.EdgesView() {
		indeg[e.To]++
	}
	var queue []graph.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, graph.NodeID(v))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return order, len(order) == n
}

// DAGShortest computes shortest paths from s in a DAG under w (weights may
// be negative). ok=false if g is not a DAG.
func DAGShortest(g *graph.Digraph, s graph.NodeID, w Weight) (Tree, bool) {
	order, ok := Topological(g)
	n := g.NumNodes()
	t := Tree{Dist: make([]int64, n), Parent: make([]graph.EdgeID, n)}
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	if !ok {
		return t, false
	}
	t.Dist[s] = 0
	for _, u := range order {
		if t.Dist[u] == Inf {
			continue
		}
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if nd := t.Dist[u] + w(e); nd < t.Dist[e.To] { //lint:allow weightovf finite Dist is a DAG path sum, |nd| < n*MaxWeight < 2^47
				t.Dist[e.To] = nd
				t.Parent[e.To] = id
			}
		}
	}
	return t, true
}
