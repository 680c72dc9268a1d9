// Package flow implements unit-capacity network flow over the shared
// digraph type: Dinic max-flow (feasibility: do k edge-disjoint paths
// exist?), minimum-cost k-flow by successive shortest paths with Johnson
// potentials (the Suurballe generalization used throughout the kRSP
// algorithms), and decomposition of unit flows into paths and cycles.
package flow

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/obs"
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

// Weight sums a linear edge weighting over the flow.
func (f UnitFlow) Weight(g *graph.Digraph, lw shortest.LinWeight) int64 {
	var s int64
	f.Edges.Each(func(id graph.EdgeID) { e := g.Edge(id); s += lw.Of(e.Cost, e.Delay) })
	return s
}

// MinCostKFlow computes a minimum-weight integral s→t flow of value k under
// unit edge capacities, using successive shortest paths with Johnson
// potentials: it packs g into a CSR view and runs a KFlowSolver on it, the
// one min-cost-flow kernel. The weighting must be nonnegative on every edge
// (problem inputs are; residual graphs are handled elsewhere). Returns
// ErrInfeasible if fewer than k edge-disjoint paths exist. Callers that run
// several flows on one graph, or need metrics or cancellation, keep a
// KFlowSolver instead.
func MinCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, lw shortest.LinWeight) (UnitFlow, error) {
	return NewKFlowSolver(graph.NewCSR(g)).MinCostKFlow(s, t, k, lw, nil, nil)
}

// recordFlow folds one min-cost-flow run into the sink.
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

// SuurballeMinSum returns k edge-disjoint s→t paths of minimum total cost
// (no delay constraint): the classic min-sum disjoint path problem [20, 21]
// solved as a min-cost k-flow. This is the delay-oblivious baseline.
func SuurballeMinSum(g *graph.Digraph, s, t graph.NodeID, k int) (graph.Solution, error) {
	f, err := MinCostKFlow(g, s, t, k, shortest.LinCost)
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
