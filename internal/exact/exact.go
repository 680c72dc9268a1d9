// Package exact provides a ground-truth kRSP solver for small instances:
// an exponential brute-force enumerator over k-tuples of edge-disjoint
// paths. It exists to validate the approximation guarantees of the core
// algorithms (experiments E1, E3, E5) — never to solve production-sized
// instances.
package exact

import (
	"errors"

	"repro/internal/graph"
)

// ErrInfeasible reports that no k edge-disjoint paths meet the delay bound.
var ErrInfeasible = errors.New("exact: infeasible instance")

// ErrTooLarge reports that the instance exceeds the enumerator's guardrail.
var ErrTooLarge = errors.New("exact: instance too large for brute force")

// Result is an optimal solution.
type Result struct {
	Solution graph.Solution
	Cost     int64
	Delay    int64
	// Explored counts search nodes, for curiosity and tests.
	Explored int
}

// BruteForce enumerates every set of k edge-disjoint s→t paths and returns
// a minimum-cost set with total delay ≤ ins.Bound. The guardrail rejects
// graphs with more than maxEdges edges (default 40 when 0 is passed).
func BruteForce(ins graph.Instance, maxEdges int) (Result, error) {
	if maxEdges <= 0 {
		maxEdges = 40
	}
	if ins.G.NumEdges() > maxEdges {
		return Result{}, ErrTooLarge
	}
	if err := ins.Validate(); err != nil {
		return Result{}, err
	}
	paths := enumerate(ins.G, ins.S, ins.T)
	res := Result{Cost: -1}
	cur := make([]graph.Path, 0, ins.K)
	used := graph.NewEdgeSet()

	var rec func(from int, cost, delay int64, left int)
	rec = func(from int, cost, delay int64, left int) {
		res.Explored++
		if delay > ins.Bound {
			return
		}
		if res.Cost >= 0 && cost >= res.Cost {
			return // cost-only branch-and-bound pruning
		}
		if left == 0 {
			res.Cost = cost
			res.Delay = delay
			res.Solution = graph.Solution{Paths: clonePaths(cur)}
			return
		}
		for i := from; i < len(paths); i++ {
			p := paths[i]
			ok := true
			for _, id := range p.Edges {
				if used.Has(id) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, id := range p.Edges {
				used.Add(id)
			}
			cur = append(cur, p)
			rec(i+1, cost+p.Cost(ins.G), delay+p.Delay(ins.G), left-1)
			cur = cur[:len(cur)-1]
			for _, id := range p.Edges {
				used.Remove(id)
			}
		}
	}
	rec(0, 0, 0, ins.K)
	if res.Cost < 0 {
		return Result{}, ErrInfeasible
	}
	return res, nil
}

// Caveat: restricting enumeration to vertex-simple paths is safe — any
// k edge-disjoint path set can be shortcut to vertex-simple paths without
// raising cost or delay (weights are nonnegative), preserving disjointness.
func enumerate(g *graph.Digraph, s, t graph.NodeID) []graph.Path {
	var out []graph.Path
	var cur []graph.EdgeID
	on := map[graph.NodeID]bool{s: true}
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if v == t {
			out = append(out, graph.Path{Edges: append([]graph.EdgeID(nil), cur...)})
			return
		}
		for _, id := range g.Out(v) {
			e := g.Edge(id)
			if on[e.To] {
				continue
			}
			on[e.To] = true
			cur = append(cur, id)
			dfs(e.To)
			cur = cur[:len(cur)-1]
			delete(on, e.To)
		}
	}
	dfs(s)
	return out
}

func clonePaths(ps []graph.Path) []graph.Path {
	out := make([]graph.Path, len(ps))
	for i, p := range ps {
		out[i] = graph.Path{Edges: append([]graph.EdgeID(nil), p.Edges...)}
	}
	return out
}
