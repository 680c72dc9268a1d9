// Package baseline implements the comparison algorithms the experiment
// suite measures the paper's algorithm against:
//
//   - MinSum (Suurballe [20,21]): min-cost k disjoint paths, delay ignored —
//     the delay-oblivious lower-bound baseline.
//   - MinDelay: delay-minimal k disjoint paths, cost ignored — the
//     feasibility-first baseline.
//   - GreedySequential: route k restricted shortest paths one at a time on
//     the shrinking graph (each under a proportional share of the delay
//     budget) — the classic practical heuristic; may fail on feasible
//     instances.
//   - LagrangianSweep: cheapest feasible min-cost k-flow across a sweep of
//     multipliers λ (the flow-level analogue of the tradeoff algorithms of
//     [18]) — no cycle cancellation.
//   - YenGreedy: k-shortest-paths enumeration + greedy disjoint selection,
//     the classic engineering heuristic with no guarantee.
//   - Phase1Only: the paper's first phase alone, i.e. the (2,2)-flavoured
//     LP-rounding bound of [9].
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/rsp"
	"repro/internal/shortest"
)

// ErrFailed reports that a heuristic baseline could not produce k paths
// (which, unlike for exact methods, does not certify infeasibility).
var ErrFailed = errors.New("baseline: heuristic failed to route k paths")

// Result is a baseline outcome. Feasible reports delay ≤ bound: baselines
// are allowed to return bound-violating solutions so experiments can
// measure the violation.
type Result struct {
	Name     string
	Solution graph.Solution
	Cost     int64
	Delay    int64
	Feasible bool
}

func mkResult(name string, ins graph.Instance, paths []graph.Path) Result {
	sol := graph.Solution{Paths: paths}
	return Result{
		Name:     name,
		Solution: sol,
		Cost:     sol.Cost(ins.G),
		Delay:    sol.Delay(ins.G),
		Feasible: sol.Delay(ins.G) <= ins.Bound,
	}
}

// MinSum is the Suurballe-style min-cost disjoint paths baseline.
func MinSum(ins graph.Instance) (Result, error) {
	sol, err := flow.SuurballeMinSum(ins.G, ins.S, ins.T, ins.K)
	if err != nil {
		return Result{}, fmt.Errorf("baseline minsum: %w", err)
	}
	return mkResult("minsum", ins, sol.Paths), nil
}

// MinDelay routes the delay-minimal k disjoint paths.
func MinDelay(ins graph.Instance) (Result, error) {
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.LinDelay)
	if err != nil {
		return Result{}, fmt.Errorf("baseline mindelay: %w", err)
	}
	paths, _, err := flow.Decompose(ins.G, f.Edges, ins.S, ins.T, ins.K)
	if err != nil {
		return Result{}, fmt.Errorf("baseline mindelay: %w", err)
	}
	return mkResult("mindelay", ins, paths), nil
}

// GreedySequential routes one restricted shortest path at a time, removing
// its edges, giving each path an equal share of the remaining delay budget.
// Simple, fast, and incomplete: it can fail (or go infeasible) on instances
// the exact algorithms solve.
func GreedySequential(ins graph.Instance) (Result, error) {
	g := ins.G.Clone()
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	budget := ins.Bound
	var paths []graph.Path
	for i := 0; i < ins.K; i++ {
		share := budget / int64(ins.K-i)
		sub, mapping := subgraph(g, alive)
		res, err := rsp.ExactDP(sub, ins.S, ins.T, share)
		if err != nil {
			// Retry with the whole remaining budget before giving up.
			res, err = rsp.ExactDP(sub, ins.S, ins.T, budget)
			if err != nil {
				return Result{}, fmt.Errorf("%w: path %d: %v", ErrFailed, i+1, err)
			}
		}
		var orig []graph.EdgeID
		for _, id := range res.Path.Edges {
			orig = append(orig, mapping[id])
			alive[mapping[id]] = false
		}
		paths = append(paths, graph.Path{Edges: orig})
		budget -= ins.G.TotalDelay(orig)
		if budget < 0 {
			budget = 0
		}
	}
	return mkResult("greedy", ins, paths), nil
}

// subgraph copies the alive edges of g into a fresh graph, returning the
// new→old edge ID mapping.
func subgraph(g *graph.Digraph, alive []bool) (*graph.Digraph, []graph.EdgeID) {
	sub := graph.New(g.NumNodes())
	var mapping []graph.EdgeID
	for _, e := range g.EdgesView() {
		if alive[e.ID] {
			sub.AddEdge(e.From, e.To, e.Cost, e.Delay)
			mapping = append(mapping, e.ID)
		}
	}
	return sub, mapping
}

// LagrangianSweep scans multipliers λ = 0, 1, 2, 4, … over the combined
// weight c + λ·d and returns the cheapest bound-respecting min-cost k-flow
// seen. Unlike the paper's algorithm it cannot trade cost for delay below
// the flow-polytope vertices it visits.
func LagrangianSweep(ins graph.Instance) (Result, error) {
	var best *Result
	kf := flow.NewKFlowSolver(graph.NewCSR(ins.G))
	lambda := int64(0)
	for iter := 0; iter < 48; iter++ {
		f, err := kf.MinCostKFlow(ins.S, ins.T, ins.K, shortest.LinCombine(1, lambda), nil, nil)
		if err != nil {
			return Result{}, fmt.Errorf("baseline sweep: %w", err)
		}
		if f.Delay(ins.G) <= ins.Bound {
			paths, _, derr := flow.Decompose(ins.G, f.Edges, ins.S, ins.T, ins.K)
			if derr != nil {
				return Result{}, fmt.Errorf("baseline sweep: %v", derr)
			}
			r := mkResult("sweep", ins, paths)
			if best == nil || r.Cost < best.Cost {
				best = &r
			}
		}
		if lambda == 0 {
			lambda = 1
		} else {
			lambda *= 2
		}
		if lambda > ins.G.SumCost()+1 {
			break
		}
	}
	if best == nil {
		return Result{}, fmt.Errorf("%w: no feasible flow in sweep", ErrFailed)
	}
	return *best, nil
}

// Phase1Only runs the paper's first phase alone (the [9]-style bound).
func Phase1Only(ins graph.Instance) (Result, error) {
	res, err := core.Solve(ins, core.Options{Phase1Only: true})
	if err != nil {
		return Result{}, err
	}
	r := mkResult("phase1", ins, res.Solution.Paths)
	return r, nil
}

// KRSP runs the paper's full algorithm, for inclusion in comparison tables.
func KRSP(ins graph.Instance) (Result, error) {
	res, err := core.Solve(ins, core.Options{})
	if err != nil {
		return Result{}, err
	}
	return mkResult("krsp", ins, res.Solution.Paths), nil
}

// Func is a baseline entry point.
type Func func(graph.Instance) (Result, error)

// All returns the registry of baselines in presentation order.
func All() []struct {
	Name string
	Run  Func
} {
	return []struct {
		Name string
		Run  Func
	}{
		{"krsp", KRSP},
		{"phase1", Phase1Only},
		{"sweep", LagrangianSweep},
		{"greedy", GreedySequential},
		{"yen", YenGreedy},
		{"minsum", MinSum},
		{"mindelay", MinDelay},
	}
}

// YenGreedy enumerates the cheapest simple paths with Yen's algorithm and
// greedily assembles k edge-disjoint ones whose total delay fits the
// bound, preferring cheap paths. A common engineering heuristic: no
// guarantee at all (it can fail on feasible instances and has unbounded
// cost ratio), which is what E6 measures it against.
func YenGreedy(ins graph.Instance) (Result, error) {
	const poolFactor = 8
	pool := shortest.KShortestPaths(ins.G, ins.S, ins.T, poolFactor*ins.K, shortest.CostWeight)
	if len(pool) < ins.K {
		return Result{}, fmt.Errorf("%w: only %d simple paths found", ErrFailed, len(pool))
	}
	// Greedy selection with restart: try each pool rotation as the anchor
	// so a single bad first pick does not doom the run.
	for start := 0; start+ins.K <= len(pool); start++ {
		var picked []graph.Path
		used := graph.NewEdgeSet()
		var delay int64
		for _, p := range pool[start:] {
			conflict := false
			for _, id := range p.Edges {
				if used.Has(id) {
					conflict = true
					break
				}
			}
			if conflict || delay+p.Delay(ins.G) > ins.Bound {
				continue
			}
			picked = append(picked, p)
			delay += p.Delay(ins.G)
			for _, id := range p.Edges {
				used.Add(id)
			}
			if len(picked) == ins.K {
				return mkResult("yen", ins, picked), nil
			}
		}
	}
	return Result{}, fmt.Errorf("%w: no disjoint feasible combination in the Yen pool", ErrFailed)
}
