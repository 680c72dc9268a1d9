// Package shortest implements the single-criterion shortest-path substrate:
// Dijkstra, SPFA and Bellman–Ford negative-cycle detection with cycle
// extraction, and Yen's k shortest paths. The solve-path kernels run over a
// graph.CSR view with a packed linear weighting (LinWeight), so callers
// route on cost, delay, or integer combinations q·c + p·d; Yen's search
// and the Digraph Dijkstra under it take an edge-weight closure (Weight).
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

// DijkstraInto computes shortest paths from s under w over caller-provided
// scratch. All selected weights must be nonnegative; the function panics on
// a negative weight since that would silently produce wrong answers. The
// returned Tree aliases the workspace (see Workspace).
//
//krsp:noalloc
//krsp:terminates(each vertex finalizes once and the heap holds ≤ m entries)
func DijkstraInto(ws *Workspace, g *graph.Digraph, s graph.NodeID, w Weight) Tree {
	n := g.NumNodes()
	t := ws.tree(n)
	done := ws.done[:n]
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
		done[v] = false
	}
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
			if rw < 0 {
				//lint:allow nopanic nonnegative-weight contract; a violation is a solver bug, not bad input
				panic("shortest: negative weight in Dijkstra")
			}
			nd := du + rw
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Parent[e.To] = id
				h.Push(int(e.To), nd)
			}
		}
	}
	return t
}
