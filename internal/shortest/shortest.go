// Package shortest implements the single-criterion shortest-path substrate:
// SPFA and Bellman–Ford negative-cycle detection with cycle extraction, and
// Yen's k shortest paths. The solve-path kernels run over a graph.CSR view
// with a packed linear weighting (LinWeight), so callers route on cost,
// delay, or integer combinations q·c + p·d. Yen's search routes on cost
// over the Digraph, with its own Dijkstra.
package shortest

import (
	"math"

	"repro/internal/graph"
)

// Inf is the sentinel distance for unreachable vertices.
const Inf = math.MaxInt64

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
