package flow

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// This file keeps two min-cost k-flow kernels over the Digraph that
// KFlowSolver is tested against:
//
//   - minCostKFlow, the kernel MinCostKFlow ran before it became a wrapper
//     over KFlowSolver, verbatim: successive shortest paths over the
//     adjacency lists with closure weights, a full potential Dijkstra, then
//     every round a full Dijkstra followed by the O(n) potential update. It
//     is the optimum oracle of TestKFlowSolverMatchesDigraph.
//   - specMinCostKFlow, KFlowSolver's tie rule written out with no heap: it
//     settles the unsettled vertex with the least (reduced distance, vertex
//     ID) by linear scan, stops each round at t and applies the capped
//     repair. It is the specification of TestKFlowSolverMatchesSpec.

// augmentAlong flips flow along the parent chain from t back to s, pushing
// on forward arcs and cancelling on backward ones.
//
//krsp:terminates(the parent array encodes a simple chain from t to s, ≤ n edges)
func augmentAlong(g *graph.Digraph, parent []arc, inFlow []bool, s, t graph.NodeID) {
	v := t
	for v != s {
		a := parent[v]
		e := g.Edge(a.edge)
		if a.fwd {
			inFlow[a.edge] = true
			v = e.From
		} else {
			inFlow[a.edge] = false
			v = e.To
		}
	}
}

func minCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, w shortest.Weight, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	var rounds, relaxed int64
	n := g.NumNodes()
	inFlow := make([]bool, g.NumEdges())
	// Potentials initialized by a plain Dijkstra (weights nonnegative). The
	// workspace-backed tree aliases ws, which is not reused below, so its
	// Dist doubles as the (mutated) potential array without a copy.
	ws := shortest.NewWorkspace(n)
	pot := shortest.DijkstraInto(ws, g, s, w).Dist

	// Scratch shared by the k augmentation rounds: allocating it per round
	// dominated small-instance solves (Phase1 calls this in a Lagrangian
	// loop, so the savings multiply).
	dist := make([]int64, n)
	parent := make([]arc, n)
	settled := make([]bool, n)
	h := pq.New(n)

	for it := 0; it < k; it++ {
		// Dijkstra over the residual structure with reduced weights.
		for v := range dist {
			dist[v] = shortest.Inf
			parent[v] = arc{edge: -1}
			settled[v] = false
		}
		if pot[s] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		dist[s] = 0
		h.Reset()
		h.Push(int(s), 0)
		for h.Len() > 0 {
			if c.Poll() {
				recordFlow(m, rounds, relaxed, false)
				return UnitFlow{}, cancel.ErrCancelled
			}
			ui, du := h.Pop()
			u := graph.NodeID(ui)
			if settled[u] {
				continue
			}
			settled[u] = true
			// relax reports whether it improved dist[to]; the call sites
			// count improvements into a plain local (capturing a counter in
			// the closure could force it to the heap, which bench-guard
			// would flag).
			relax := func(to graph.NodeID, wt int64, a arc) bool {
				if settled[to] || pot[to] == shortest.Inf {
					return false
				}
				rw := wt + pot[u] - pot[to]
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := du + rw; nd < dist[to] {
					dist[to] = nd
					parent[to] = a
					h.Push(int(to), nd)
					return true
				}
				return false
			}
			for _, id := range g.Out(u) {
				e := g.Edge(id)
				if !inFlow[id] && relax(e.To, w(e), arc{edge: id, fwd: true}) {
					relaxed++
				}
			}
			for _, id := range g.In(u) {
				e := g.Edge(id)
				if inFlow[id] && relax(e.From, -w(e), arc{edge: id, fwd: false}) {
					relaxed++
				}
			}
		}
		if dist[t] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		augmentAlong(g, parent, inFlow, s, t)
		// Update potentials: pot'[v] = pot[v] + dist_reduced[v]; vertices
		// unreached this round become unreachable for future rounds too
		// under reduced weights, mark Inf.
		for v := range pot {
			if pot[v] == shortest.Inf {
				continue
			}
			if dist[v] == shortest.Inf {
				pot[v] = shortest.Inf
			} else {
				pot[v] += dist[v] //lint:allow weightovf potentials accumulate <=k reduced path sums, each under n*MaxWeight < 2^47
			}
		}
	}

	set := graph.NewEdgeSet()
	for id, used := range inFlow {
		if used {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}

// specMinCostKFlow computes the min-cost k-flow KFlowSolver must return,
// edge for edge: potentials start at zero; each round scans for the
// unsettled vertex with the least (reduced distance, vertex ID), relaxes
// its unused out-arcs and then its used in-arcs in ascending edge-ID order
// (strict improvements only), stops once t settles, augments along t's
// tree path, and adds min(dist[v], dist[t]) to every potential.
func specMinCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	var rounds, relaxed int64
	n := g.NumNodes()
	inFlow := make([]bool, g.NumEdges())
	pot := make([]int64, n)
	for it := 0; it < k; it++ {
		dist := make([]int64, n)
		parent := make([]arc, n)
		settled := make([]bool, n)
		for v := range dist {
			dist[v] = shortest.Inf
			parent[v] = arc{edge: -1}
		}
		dist[s] = 0
		for {
			u := graph.NodeID(-1)
			for v := range dist {
				if !settled[v] && dist[v] != shortest.Inf && (u < 0 || dist[v] < dist[u]) {
					u = graph.NodeID(v)
				}
			}
			if u < 0 {
				break
			}
			settled[u] = true
			if u == t {
				break
			}
			relax := func(to graph.NodeID, wt int64, a arc) {
				if settled[to] {
					return
				}
				rw := wt + pot[u] - pot[to]
				if rw < 0 {
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := dist[u] + rw; nd < dist[to] {
					dist[to] = nd
					parent[to] = a
					relaxed++
				}
			}
			for _, id := range g.Out(u) {
				if e := g.Edge(id); !inFlow[id] {
					relax(e.To, lw.Of(e.Cost, e.Delay), arc{edge: id, fwd: true})
				}
			}
			for _, id := range g.In(u) {
				if e := g.Edge(id); inFlow[id] {
					relax(e.From, -lw.Of(e.Cost, e.Delay), arc{edge: id, fwd: false})
				}
			}
		}
		if dist[t] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		augmentAlong(g, parent, inFlow, s, t)
		for v := range pot {
			pot[v] += min(dist[v], dist[t])
		}
	}

	set := graph.NewEdgeSet()
	for id, used := range inFlow {
		if used {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}
