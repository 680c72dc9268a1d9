package baseline

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// MinMax computes k edge-disjoint s→t paths approximately minimizing the
// maximum per-path delay — the Min-Max disjoint path problem the paper
// surveys in §1.2. The problem is NP-complete with best possible factor 2
// in digraphs [16]; that factor is achieved by the min-SUM reduction of
// Suurballe [20, 21]: the delay-minimal k-flow's longest path is at most
// the sum of all k paths' delays, which is at most k times... more simply,
// max ≤ sum ≤ k·OPT_max gives factor k; for k = 2 the classic argument
// tightens it to 2. Returns the solution and its realized maximum
// per-path delay.
func MinMax(ins graph.Instance) (graph.Solution, int64, error) {
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.LinDelay)
	if err != nil {
		return graph.Solution{}, 0, fmt.Errorf("baseline minmax: %w", err)
	}
	paths, _, err := flow.Decompose(ins.G, f.Edges, ins.S, ins.T, ins.K)
	if err != nil {
		return graph.Solution{}, 0, fmt.Errorf("baseline minmax: %v", err)
	}
	sol := graph.Solution{Paths: paths}
	var worst int64
	for _, p := range paths {
		if d := p.Delay(ins.G); d > worst {
			worst = d
		}
	}
	return sol, worst, nil
}
