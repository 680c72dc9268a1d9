// Package flow implements unit-capacity network flow over the shared
// digraph type: Dinic max-flow (feasibility: do k edge-disjoint paths
// exist?), minimum-cost k-flow by successive shortest paths with Johnson
// potentials (the Suurballe generalization used throughout the kRSP
// algorithms), decomposition of unit flows into paths and cycles, and a
// vertex-splitting transform for vertex-disjoint variants.
package flow

import (
	"errors"
	"fmt"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// ErrInfeasible reports that the requested flow value is not achievable.
var ErrInfeasible = errors.New("flow: requested value exceeds max flow")

// MaxDisjointPaths returns the maximum number of edge-disjoint s→t paths
// (the s-t max-flow under unit capacities), computed with Dinic's
// algorithm.
func MaxDisjointPaths(g *graph.Digraph, s, t graph.NodeID) int {
	if s == t {
		return 0
	}
	n := g.NumNodes()
	used := make([]bool, g.NumEdges()) // edge carries flow
	level := make([]int, n)
	iterOut := make([]int, n)
	iterIn := make([]int, n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := []graph.NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, id := range g.Out(u) {
				e := g.Edge(id)
				if !used[id] && level[e.To] < 0 {
					level[e.To] = level[u] + 1
					queue = append(queue, e.To)
				}
			}
			for _, id := range g.In(u) {
				e := g.Edge(id)
				if used[id] && level[e.From] < 0 {
					level[e.From] = level[u] + 1
					queue = append(queue, e.From)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u graph.NodeID) bool
	dfs = func(u graph.NodeID) bool {
		if u == t {
			return true
		}
		for ; iterOut[u] < len(g.Out(u)); iterOut[u]++ {
			id := g.Out(u)[iterOut[u]]
			e := g.Edge(id)
			if !used[id] && level[e.To] == level[u]+1 && dfs(e.To) {
				used[id] = true
				return true
			}
		}
		for ; iterIn[u] < len(g.In(u)); iterIn[u]++ {
			id := g.In(u)[iterIn[u]]
			e := g.Edge(id)
			if used[id] && level[e.From] == level[u]+1 && dfs(e.From) {
				used[id] = false
				return true
			}
		}
		return false
	}

	total := 0
	for bfs() {
		for i := range iterOut {
			iterOut[i] = 0
			iterIn[i] = 0
		}
		for dfs(s) {
			total++
		}
	}
	return total
}

// UnitFlow is an integral unit-capacity flow: the set of edges carrying one
// unit each.
type UnitFlow struct {
	Edges graph.EdgeSet
	Value int
}

// Cost sums edge costs of the flow. Summation is order-independent, so the
// set is walked directly rather than sorted.
func (f UnitFlow) Cost(g *graph.Digraph) int64 {
	var s int64
	f.Edges.Each(func(id graph.EdgeID) { s += g.Edge(id).Cost }) //lint:allow weightovf flow sum over MaxWeight-capped edges; ≤ m·MaxWeight
	return s
}

// Delay sums edge delays of the flow.
func (f UnitFlow) Delay(g *graph.Digraph) int64 {
	var s int64
	f.Edges.Each(func(id graph.EdgeID) { s += g.Edge(id).Delay }) //lint:allow weightovf flow sum over MaxWeight-capped edges; ≤ m·MaxWeight
	return s
}

// Weight sums an arbitrary edge weight over the flow.
func (f UnitFlow) Weight(g *graph.Digraph, w shortest.Weight) int64 {
	var s int64
	f.Edges.Each(func(id graph.EdgeID) { s += w(g.Edge(id)) }) //lint:allow weightovf flow sum; callers pass MaxWeight-bounded weightings
	return s
}

// MinCostKFlow computes a minimum-weight integral s→t flow of value k under
// unit edge capacities, using successive shortest paths with Johnson
// potentials. The weight selector must be nonnegative on every edge
// (problem inputs are; residual graphs are handled elsewhere). Returns
// ErrInfeasible if fewer than k edge-disjoint paths exist.
func MinCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, w shortest.Weight) (UnitFlow, error) {
	return minCostKFlow(g, s, t, k, w, nil, nil)
}

// MinCostKFlowMetered is MinCostKFlow reporting call/augmentation/
// relaxation/infeasibility counts into m. A nil sink records nothing and
// costs nothing; counts are accumulated in locals and folded into the
// atomic counters once per call, at the exits.
func MinCostKFlowMetered(g *graph.Digraph, s, t graph.NodeID, k int, w shortest.Weight, m *obs.FlowMetrics) (UnitFlow, error) {
	return minCostKFlow(g, s, t, k, w, m, nil)
}

// MinCostKFlowCancel is MinCostKFlowMetered polling a Canceller in its
// Dijkstra pop loop: once c stops, the run abandons its partial flow and
// returns cancel.ErrCancelled. A nil Canceller costs one branch per pop.
// core.Phase1 threads its SolveCtx canceller through here so the Lagrangian
// search honors deadlines between and within augmentation rounds.
func MinCostKFlowCancel(g *graph.Digraph, s, t graph.NodeID, k int, w shortest.Weight, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	return minCostKFlow(g, s, t, k, w, m, c)
}

// recordFlow folds one minCostKFlow run into the sink.
func recordFlow(m *obs.FlowMetrics, rounds, relaxed int64, infeasible bool) {
	if m == nil {
		return
	}
	m.Calls.Inc()
	m.Augmentations.Add(rounds)
	m.Relaxations.Add(relaxed)
	if infeasible {
		m.Infeasible.Inc()
	}
}

// arc is a residual-graph step recorded in the Dijkstra parent array: push
// one unit on an unused edge (fwd) or cancel a unit on a used one.
type arc struct {
	edge graph.EdgeID
	fwd  bool // true: push on unused edge; false: cancel used edge
}

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

// SuurballeMinSum returns k edge-disjoint s→t paths of minimum total cost
// (no delay constraint): the classic min-sum disjoint path problem [20, 21]
// solved as a min-cost k-flow. This is the delay-oblivious baseline.
func SuurballeMinSum(g *graph.Digraph, s, t graph.NodeID, k int) (graph.Solution, error) {
	f, err := MinCostKFlow(g, s, t, k, shortest.CostWeight)
	if err != nil {
		return graph.Solution{}, err
	}
	// Min-cost flows over nonnegative weights never need cycles, but a
	// zero-cost cycle may appear; drop it (it only adds delay).
	paths, _, err := Decompose(g, f.Edges, s, t, k)
	if err != nil {
		return graph.Solution{}, err
	}
	return graph.Solution{Paths: paths}, nil
}
