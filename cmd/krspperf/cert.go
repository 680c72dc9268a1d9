package main

import (
	"fmt"
	"math/big"

	"repro/internal/graph"
)

// answer is a solver answer as the benchmark checks it: the paths as edge
// sequences plus the totals and lower bound the program reported.
type answer struct {
	paths            [][]graph.EdgeID
	cost, delay, lb  int64
	phase1, degraded bool
}

// certify checks an answer against its instance: k edge-disjoint s→t paths
// whose recomputed cost and delay equal the reported ones, cost at least the
// reported lower bound, and the delay guarantee of the algorithm that ran —
// delay ≤ D for a full solve, cost/LB + delay/D ≤ 2 for phase 1 alone (the
// Lemma 5 bifactor, which lets delay exceed D). A degraded answer fails: no
// workload sets a deadline.
func certify(ins graph.Instance, a answer) error {
	if a.degraded {
		return fmt.Errorf("degraded answer")
	}
	if len(a.paths) != ins.K {
		return fmt.Errorf("%d paths, want %d", len(a.paths), ins.K)
	}
	g := ins.G
	used := make(map[graph.EdgeID]bool)
	var cost, delay int64
	for i, p := range a.paths {
		at := ins.S
		for _, id := range p {
			if id < 0 || int(id) >= g.NumEdges() {
				return fmt.Errorf("path %d: unknown edge %d", i, id)
			}
			e := g.Edge(id)
			if e.From != at {
				return fmt.Errorf("path %d: edge %d leaves %d, want %d", i, id, e.From, at)
			}
			if used[id] {
				return fmt.Errorf("path %d: edge %d is used twice", i, id)
			}
			used[id] = true
			at = e.To
			cost += e.Cost
			delay += e.Delay
		}
		if at != ins.T {
			return fmt.Errorf("path %d ends at %d, want t=%d", i, at, ins.T)
		}
	}
	if cost != a.cost || delay != a.delay {
		return fmt.Errorf("paths cost %d and delay %d, reported %d and %d", cost, delay, a.cost, a.delay)
	}
	if cost < a.lb {
		return fmt.Errorf("cost %d below the reported lower bound %d", cost, a.lb)
	}
	if !a.phase1 {
		if delay > ins.Bound {
			return fmt.Errorf("delay %d exceeds the bound %d", delay, ins.Bound)
		}
		return nil
	}
	// cost·D + delay·LB ≤ 2·LB·D, in exact arithmetic.
	lb, d := big.NewInt(a.lb), big.NewInt(ins.Bound)
	lhs := new(big.Int).Mul(big.NewInt(cost), d)
	lhs.Add(lhs, new(big.Int).Mul(big.NewInt(delay), lb))
	rhs := new(big.Int).Mul(lb, d)
	rhs.Lsh(rhs, 1)
	if lhs.Cmp(rhs) > 0 {
		return fmt.Errorf("cost %d and delay %d break cost/LB + delay/D ≤ 2 (LB %d, D %d)", cost, delay, a.lb, ins.Bound)
	}
	return nil
}

// answerStats accumulates the quality side of certified answers.
type answerStats struct {
	ok       int // answers that passed
	ratioSum float64
	ratios   int
	over2LB  int
}

// check certifies one answer, counting a failure in o.
func (q *answerStats) check(o *outcome, ins graph.Instance, a answer, what string) bool {
	if err := certify(ins, a); err != nil {
		o.fail("%s: certificate: %v", what, err)
		return false
	}
	q.ok++
	if a.lb > 0 {
		q.ratioSum += float64(a.cost) / float64(a.lb)
		q.ratios++
		if a.cost > 2*a.lb {
			q.over2LB++
		}
	}
	return true
}

// costOverLB is the mean of Cost/LowerBound over the certified answers.
func (q *answerStats) costOverLB() float64 {
	if q.ratios == 0 {
		return 0
	}
	return q.ratioSum / float64(q.ratios)
}

// edgePaths maps vertex sequences, as krspd returns them, to edge sequences.
// Each consecutive pair must name exactly one edge; the layered grids the
// workloads generate have no parallel edges.
func edgePaths(g *graph.Digraph, vertexPaths [][]int32) ([][]graph.EdgeID, error) {
	out := make([][]graph.EdgeID, len(vertexPaths))
	for i, vs := range vertexPaths {
		if len(vs) < 2 {
			return nil, fmt.Errorf("path %d has %d vertices", i, len(vs))
		}
		for j := 0; j+1 < len(vs); j++ {
			u, v := graph.NodeID(vs[j]), graph.NodeID(vs[j+1])
			if u < 0 || int(u) >= g.NumNodes() || v < 0 || int(v) >= g.NumNodes() {
				return nil, fmt.Errorf("path %d: vertex out of range in %d→%d", i, u, v)
			}
			ids := g.FindEdges(u, v)
			if len(ids) != 1 {
				return nil, fmt.Errorf("path %d: %d edges %d→%d, want exactly one", i, len(ids), u, v)
			}
			out[i] = append(out[i], ids[0])
		}
	}
	return out, nil
}
