package bicameral

import (
	"errors"

	"repro/internal/auxgraph"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/residual"
)

// findLP is the paper-faithful engine: Algorithm 3 with LP (6). For each
// budget B and each seed vertex v it builds H_v^+(B) and H_v^-(B), solves
//
//	min  Σ_{e∈H} c(e)·x(e)
//	s.t. flow conservation at every vertex of H
//	     Σ_{e∈H} d(e)·x(e) ≤ ΔD
//	     0 ≤ x(e) ≤ 1
//
// with the in-repo simplex, and releases the cycles in the support of the
// optimum (the “rounding” step: x(e) → 1 on extracted cycles). Exact
// integer classification then filters bicameral candidates. The box
// x ≤ 1 is not in the paper's LP but keeps it bounded; every single simple
// cycle of H remains feasible, which is all the rounding step consumes.
func findLP(rg *residual.Graph, p Params, o Options) (Candidate, Stats, bool) {
	var st Stats
	seeds := rg.ReversedSeeds()
	if len(seeds) == 0 {
		return Candidate{}, st, false
	}
	maxB := p.CostCap // ≥ 1: Find rejects smaller caps
	b := int64(1)
	var best Candidate
	haveBest := false
	for {
		if o.Cancel.Check() {
			// Cancelled: not-found without a completeness claim (callers
			// re-check the Canceller, see Options.Cancel).
			return Candidate{}, st, false
		}
		st.BudgetsTried++
		st.LastBudget = b
		for _, v := range seeds {
			for _, kind := range []auxgraph.Kind{auxgraph.Plus, auxgraph.Minus} {
				a := auxgraph.Build(rg.View(), v, b, kind)
				st.Searches++
				for _, cand := range lpCandidates(rg, a, p, o, &st) {
					if cand.Type == TypeNone {
						continue
					}
					if !haveBest || better(cand, best, o.Adversarial) {
						best, haveBest = cand, true
					}
				}
			}
		}
		if haveBest {
			return best, st, true
		}
		if b >= maxB {
			break
		}
		if o.FullSweep {
			b++
		} else {
			b *= 2
			if b > maxB {
				b = maxB
			}
		}
	}
	return Candidate{}, st, false
}

// lpCandidates solves LP (6) on one auxiliary graph and extracts support
// cycles as candidates.
func lpCandidates(rg *residual.Graph, a *auxgraph.Aux, p Params, o Options, st *Stats) []Candidate {
	h := a.H
	m := h.NumEdges()
	if m == 0 {
		return nil
	}
	// Injected LP-rounding failure: this auxiliary graph yields no
	// candidates, exactly like a numerically troubled simplex run below.
	if err := o.Faults.Check(fault.PointLPRound); err != nil {
		return nil
	}
	prob := lp.NewProblem(m)
	for i := 0; i < m; i++ {
		prob.SetObjective(i, float64(h.Cost(graph.EdgeID(i))))
		prob.AddBound(i, 1)
	}
	// Conservation at every H vertex that touches an edge. H is never
	// flipped, so its frozen rows are its adjacency.
	for v := 0; v < h.NumNodes(); v++ {
		outs := h.OutRow(graph.NodeID(v))
		ins := h.InRow(graph.NodeID(v))
		if len(outs) == 0 && len(ins) == 0 {
			continue
		}
		var coefs []lp.Coef
		for _, id := range outs {
			coefs = append(coefs, lp.Coef{Var: int(id), Val: 1})
		}
		for _, id := range ins {
			coefs = append(coefs, lp.Coef{Var: int(id), Val: -1})
		}
		prob.AddRow(coefs, lp.EQ, 0)
	}
	// Σ d(e) x(e) ≤ ΔD (< 0 while the delay bound is violated: forces a
	// delay-negative circulation).
	var dRow []lp.Coef
	for i := 0; i < m; i++ {
		if d := h.Delay(graph.EdgeID(i)); d != 0 {
			dRow = append(dRow, lp.Coef{Var: i, Val: float64(d)})
		}
	}
	prob.AddRow(dRow, lp.LE, float64(p.DeltaD))
	sol, err := prob.Solve()
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil // no qualifying circulation in this H
		}
		return nil // numerical trouble: treat as no candidates
	}
	// Release cycles from the fractional support and classify each.
	support := make([]float64, m)
	copy(support, sol.X)
	var out []Candidate
	for iter := 0; iter < m; iter++ {
		hCycle := extractSupportCycle(h, support)
		if hCycle == nil {
			break
		}
		// Remove the cycle's minimum multiplicity from the support.
		minX := 2.0
		for _, id := range hCycle {
			if support[id] < minX {
				minX = support[id]
			}
		}
		for _, id := range hCycle {
			support[id] -= minX
		}
		for _, cyc := range a.ProjectWalk(hCycle) {
			st.Candidates++
			cc, dd := rg.CycleCost(cyc), rg.CycleDelay(cyc)
			out = append(out, Candidate{
				Cycles: []graph.Cycle{cyc},
				Cost:   cc,
				Delay:  dd,
				Type:   Classify(cc, dd, p),
			})
		}
	}
	return out
}

// extractSupportCycle finds a directed cycle among edges with x > eps,
// returned as an H edge sequence, or nil if the support is (numerically)
// empty or acyclic.
//
//krsp:terminates(the pos check ends the walk at the first repeated vertex, within n steps)
func extractSupportCycle(h *graph.CSR, x []float64) []graph.EdgeID {
	const eps = 1e-7
	next := make(map[graph.NodeID]graph.EdgeID)
	var start graph.NodeID = -1
	for i := 0; i < h.NumEdges(); i++ {
		if x[i] > eps {
			id := graph.EdgeID(i)
			from := h.Tail(id)
			if _, dup := next[from]; !dup {
				next[from] = id
			}
			if start < 0 {
				start = from
			}
		}
	}
	if start < 0 {
		return nil
	}
	// Walk successor pointers until a vertex repeats.
	pos := map[graph.NodeID]int{}
	var walk []graph.EdgeID
	cur := start
	for {
		id, ok := next[cur]
		if !ok {
			return nil // dead end: conservation says this shouldn't happen
		}
		if at, seen := pos[cur]; seen {
			return walk[at:]
		}
		pos[cur] = len(walk)
		walk = append(walk, id)
		cur = h.Head(id)
		if len(walk) > h.NumEdges() {
			return nil
		}
	}
}
