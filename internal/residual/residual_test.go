package residual

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/shortest"
)

func diamond() *graph.Digraph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 2) // e0
	g.AddEdge(0, 2, 2, 1) // e1
	g.AddEdge(1, 3, 3, 4) // e2
	g.AddEdge(2, 3, 4, 3) // e3
	g.AddEdge(1, 2, 5, 5) // e4
	return g
}

func TestBuildNegatesSolutionEdges(t *testing.T) {
	g := diamond()
	sol := graph.NewEdgeSet(0, 2) // path 0→1→3
	rg := Build(g, sol)
	v := rg.View()
	if v.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	for _, e := range g.Edges() {
		re := graph.Edge{ID: e.ID, From: v.Tail(e.ID), To: v.Head(e.ID), Cost: v.Cost(e.ID), Delay: v.Delay(e.ID)}
		if sol.Has(e.ID) {
			if re.From != e.To || re.To != e.From || re.Cost != -e.Cost || re.Delay != -e.Delay {
				t.Fatalf("edge %d not reversed/negated: %+v", e.ID, re)
			}
			if !rg.Reversed(e.ID) {
				t.Fatalf("edge %d not flagged reversed", e.ID)
			}
		} else {
			if re != e {
				t.Fatalf("edge %d altered: %+v", e.ID, re)
			}
			if rg.Reversed(e.ID) {
				t.Fatalf("edge %d wrongly flagged", e.ID)
			}
		}
	}
}

func TestReversedSeeds(t *testing.T) {
	g := diamond()
	rg := Build(g, graph.NewEdgeSet(0, 2))
	seeds := rg.ReversedSeeds()
	want := map[graph.NodeID]bool{0: true, 1: true, 3: true}
	if len(seeds) != len(want) {
		t.Fatalf("seeds = %v", seeds)
	}
	for _, v := range seeds {
		if !want[v] {
			t.Fatalf("unexpected seed %d", v)
		}
	}
	// No solution → no seeds.
	if s := Build(g, graph.NewEdgeSet()).ReversedSeeds(); len(s) != 0 {
		t.Fatalf("seeds = %v", s)
	}
}

func TestApplyCycleSwapsPaths(t *testing.T) {
	g := diamond()
	// Current solution: 0→1→3 via e0,e2. Residual cycle: forward e1 (0→2),
	// forward e3 (2→3), reversed e2 (3→1), reversed e0 (1→0) — swaps the
	// solution to 0→2→3.
	sol := graph.NewEdgeSet(0, 2)
	rg := Build(g, sol)
	cyc := graph.Cycle{Edges: []graph.EdgeID{1, 3, 2, 0}}
	if err := cyc.Validate(rg.View(), true); err != nil {
		t.Fatal(err)
	}
	next, err := rg.ApplyAll([]graph.Cycle{cyc})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []graph.EdgeID{1, 3}
	got := next.IDs()
	if len(got) != 2 || got[0] != wantIDs[0] || got[1] != wantIDs[1] {
		t.Fatalf("next = %v", got)
	}
	// Cost/delay bookkeeping: Δcost = cycle residual cost.
	dc := rg.CycleCost(cyc)
	dd := rg.CycleDelay(cyc)
	if g.TotalCost(got)-g.TotalCost(sol.IDs()) != dc {
		t.Fatalf("cost delta %d vs cycle %d", g.TotalCost(got)-g.TotalCost(sol.IDs()), dc)
	}
	if g.TotalDelay(got)-g.TotalDelay(sol.IDs()) != dd {
		t.Fatalf("delay delta mismatch %d", dd)
	}
}

func TestApplyRejectsStaleCycle(t *testing.T) {
	g := diamond()
	rg := Build(g, graph.NewEdgeSet(0, 2))
	// Cycle that "adds" e0, but e0 is already in the solution — in the
	// residual built against sol, edge 0 is reversed, so a cycle listing it
	// as forward cannot validate contiguously; craft a double-remove case
	// instead via a fake duplicate traversal.
	bad := graph.Cycle{Edges: []graph.EdgeID{99}}
	if _, err := rg.ApplyAll([]graph.Cycle{bad}); err == nil {
		t.Fatal("bogus cycle accepted")
	}
}

func TestProposition7_ApplyPreservesKDisjointFlow(t *testing.T) {
	// Property: applying any valid residual cycle to a valid k-flow yields
	// a valid k-flow (Proposition 7).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(10)), int64(r.Intn(10)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		k := 1 + r.Intn(2)
		if flow.MaxDisjointPaths(g, s, tt) < k {
			return true // skip
		}
		fl, err := flow.MinCostKFlow(g, s, tt, k, shortest.LinCost)
		if err != nil {
			return false
		}
		rg := Build(g, fl.Edges)
		// Find any cycle in the residual graph (by costing every edge −1 on a
		// scratch copy, any cycle is "negative"); skip if none.
		unit := rg.View().Clone()
		for id := 0; id < unit.NumEdges(); id++ {
			unit.SetWeights(graph.EdgeID(id), -1, 0)
		}
		_, cyc, ok := shortest.BellmanFordAllCSRInto(shortest.NewWorkspace(n), unit, shortest.LinCost, nil)
		if ok {
			return true
		}
		next, err := rg.ApplyAll([]graph.Cycle{cyc})
		if err != nil {
			return false
		}
		paths, _, err := flow.Decompose(g, next, s, tt, k)
		if err != nil {
			return false
		}
		ins := graph.Instance{G: g, S: s, T: tt, K: k, Bound: 1 << 40}
		return (graph.Solution{Paths: paths}).Validate(ins) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProposition8_SolutionCycles(t *testing.T) {
	// {P*} ⊕ {P̄} is exactly a set of edge-disjoint cycles whose totals
	// equal the cost/delay difference of the two solutions.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(10)), int64(r.Intn(10)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		k := 1 + r.Intn(2)
		if flow.MaxDisjointPaths(g, s, tt) < k {
			return true
		}
		// Two different k-flows: min-cost and min-delay.
		f1, err1 := flow.MinCostKFlow(g, s, tt, k, shortest.LinCost)
		f2, err2 := flow.MinCostKFlow(g, s, tt, k, shortest.LinDelay)
		if err1 != nil || err2 != nil {
			return false
		}
		rg := Build(g, f1.Edges)
		cycles, err := rg.SolutionCycles(f2.Edges)
		if err != nil {
			return false
		}
		var dc, dd int64
		usedRes := graph.NewEdgeSet()
		for _, c := range cycles {
			if c.Validate(rg.View(), false) != nil {
				return false
			}
			for _, id := range c.Edges {
				if usedRes.Has(id) {
					return false // cycles must be edge-disjoint
				}
				usedRes.Add(id)
			}
			dc += rg.CycleCost(c)
			dd += rg.CycleDelay(c)
		}
		wantDC := f2.Cost(g) - f1.Cost(g)
		wantDD := f2.Delay(g) - f1.Delay(g)
		return dc == wantDC && dd == wantDD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma9_NegativeDelayCycleExists(t *testing.T) {
	// If the current solution's delay exceeds that of another solution,
	// the residual graph contains a negative-delay cycle.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(10)), int64(r.Intn(10)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		k := 1 + r.Intn(2)
		if flow.MaxDisjointPaths(g, s, tt) < k {
			return true
		}
		fc, _ := flow.MinCostKFlow(g, s, tt, k, shortest.LinCost)
		fd, _ := flow.MinCostKFlow(g, s, tt, k, shortest.LinDelay)
		if fc.Delay(g) <= fd.Delay(g) {
			return true // current solution already delay-minimal, skip
		}
		rg := Build(g, fc.Edges)
		_, _, ok := shortest.BellmanFordAllCSRInto(shortest.NewWorkspace(n), rg.View(), shortest.LinDelay, nil)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionAccessor(t *testing.T) {
	g := diamond()
	sol := graph.NewEdgeSet(0, 2)
	rg := Build(g, sol)
	got := rg.Solution()
	got.Remove(0)
	if !rg.Solution().Has(0) {
		t.Fatal("Solution() must return a copy")
	}
}
