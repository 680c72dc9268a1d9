package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func solved(t *testing.T, phase1 bool) (graph.Instance, answer) {
	t.Helper()
	w := workload{name: "cert", grid: shape{60, 6}}
	ins, err := instance(3, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(ins, core.Options{Phase1Only: phase1})
	if err != nil {
		t.Fatal(err)
	}
	a := solverAnswer(res, phase1)
	if err := certify(ins, a); err != nil {
		t.Fatalf("untampered answer rejected: %v", err)
	}
	return ins, a
}

func clonePaths(ps [][]graph.EdgeID) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, len(ps))
	for i, p := range ps {
		out[i] = append([]graph.EdgeID(nil), p...)
	}
	return out
}

func TestCertifyRejectsTampering(t *testing.T) {
	ins, good := solved(t, false)
	g := ins.G
	for _, tc := range []struct {
		name   string
		tamper func(a *answer)
		want   string
	}{
		{"shared edge", func(a *answer) {
			a.paths[1] = append([]graph.EdgeID(nil), a.paths[0]...)
			a.cost, a.delay = 2*g.TotalCost(a.paths[0])+g.TotalCost(a.paths[2]), 2*g.TotalDelay(a.paths[0])+g.TotalDelay(a.paths[2])
		}, "used twice"},
		{"wrong cost", func(a *answer) { a.cost-- }, "reported"},
		{"wrong delay", func(a *answer) { a.delay++ }, "reported"},
		{"misses t", func(a *answer) {
			p := a.paths[0]
			e := g.Edge(p[len(p)-1])
			a.paths[0] = p[:len(p)-1]
			a.cost -= e.Cost
			a.delay -= e.Delay
		}, "want t="},
		{"too few paths", func(a *answer) { a.paths = a.paths[:2] }, "paths, want"},
		{"cost under the lower bound", func(a *answer) { a.lb = a.cost + 1 }, "lower bound"},
		{"degraded", func(a *answer) { a.degraded = true }, "degraded"},
	} {
		a := good
		a.paths = clonePaths(good.paths)
		tc.tamper(&a)
		err := certify(ins, a)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: certify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A real delay violation: the same paths against a tighter bound.
	tight := ins
	tight.Bound = good.delay - 1
	if err := certify(tight, good); err == nil || !strings.Contains(err.Error(), "exceeds the bound") {
		t.Errorf("delay over D: certify = %v", err)
	}
}

func TestCertifyPhase1Bifactor(t *testing.T) {
	ins, a := solved(t, true)
	// Phase 1 may exceed D, but not cost/LB + delay/D ≤ 2.
	over := ins
	over.Bound = (a.delay + 1) / 2
	if a.cost > 0 && a.lb > 0 {
		if err := certify(over, a); err == nil || !strings.Contains(err.Error(), "≤ 2") {
			t.Errorf("bifactor breach: certify = %v", err)
		}
	}
}

func TestEdgePathsFromVertices(t *testing.T) {
	ins, a := solved(t, false)
	var vertexPaths [][]int32
	for _, p := range a.paths {
		var vs []int32
		for _, v := range (graph.Path{Edges: p}).Nodes(ins.G) {
			vs = append(vs, int32(v))
		}
		vertexPaths = append(vertexPaths, vs)
	}
	got, err := edgePaths(ins.G, vertexPaths)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.paths = got
	if err := certify(ins, b); err != nil {
		t.Errorf("mapped paths rejected: %v", err)
	}
	vertexPaths[0] = append(vertexPaths[0], vertexPaths[0][0])
	if _, err := edgePaths(ins.G, vertexPaths); err == nil {
		t.Error("a vertex pair with no edge was mapped")
	}
}
