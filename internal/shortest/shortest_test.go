package shortest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func mkWeighted(t *testing.T) *graph.Digraph {
	t.Helper()
	// 0→1 (1/10), 0→2 (4/1), 1→2 (2/1), 2→3 (1/1), 1→3 (7/2)
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(0, 2, 4, 1)
	g.AddEdge(1, 2, 2, 1)
	g.AddEdge(2, 3, 1, 1)
	g.AddEdge(1, 3, 7, 2)
	return g
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 1)
	tr := DijkstraInto(NewWorkspace(3), g, 0, CostWeight)
	if tr.Dist[2] != Inf {
		t.Fatal("vertex 2 should be unreachable")
	}
	if _, ok := tr.PathTo(g, 2); ok {
		t.Fatal("PathTo unreachable should fail")
	}
}

func TestDijkstraCost(t *testing.T) {
	g := mkWeighted(t)
	tr := DijkstraInto(NewWorkspace(g.NumNodes()), g, 0, CostWeight)
	want := []int64{0, 1, 3, 4}
	for v, d := range want {
		if tr.Dist[v] != d {
			t.Fatalf("dist[%d]=%d want %d", v, tr.Dist[v], d)
		}
	}
	p, _ := tr.PathTo(g, 3)
	if err := p.Validate(g, 0, 3, true); err != nil {
		t.Fatal(err)
	}
	if p.Cost(g) != 4 {
		t.Fatalf("path cost %d", p.Cost(g))
	}
}

func TestDijkstraDelay(t *testing.T) {
	g := mkWeighted(t)
	tr := DijkstraInto(NewWorkspace(g.NumNodes()), g, 0, func(e graph.Edge) int64 { return e.Delay })
	if tr.Dist[3] != 2 { // 0→2→3: 1+1
		t.Fatalf("delay dist[3]=%d", tr.Dist[3])
	}
}

func TestDijkstraPanicsOnNegative(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, -1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DijkstraInto(NewWorkspace(2), g, 0, CostWeight)
}

// bellmanFordFrom runs the single-source CSR Bellman–Ford on g's view.
func bellmanFordFrom(g *graph.Digraph, s graph.NodeID) (Tree, graph.Cycle, bool) {
	return BellmanFordCSRInto(NewWorkspace(g.NumNodes()), graph.NewCSR(g), s, LinCost)
}

// negativeCycle runs the all-sources CSR Bellman–Ford on g's view: found
// reports a negative-cost cycle, and otherwise pot holds valid potentials.
func negativeCycle(g *graph.Digraph) (cyc graph.Cycle, pot []int64, found bool) {
	t, cyc, ok := BellmanFordAllCSRInto(NewWorkspace(g.NumNodes()), graph.NewCSR(g), LinCost, nil)
	return cyc, t.Dist, !ok
}

func TestBellmanFordMatchesDijkstraNonneg(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := graph.New(n)
		m := r.Intn(4 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), int64(r.Intn(50)), int64(r.Intn(50)))
		}
		bf, _, ok := bellmanFordFrom(g, 0)
		if !ok {
			return false // nonnegative weights: no negative cycle possible
		}
		dj := DijkstraInto(NewWorkspace(n), g, 0, CostWeight)
		for v := 0; v < n; v++ {
			if bf.Dist[v] != dj.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBellmanFordNegativeEdgesNoCycle(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 1, -3, 0)
	g.AddEdge(1, 3, 2, 0)
	tr, _, ok := bellmanFordFrom(g, 0)
	if !ok {
		t.Fatal("no negative cycle expected")
	}
	if tr.Dist[1] != -2 || tr.Dist[3] != 0 {
		t.Fatalf("dist = %v", tr.Dist)
	}
}

func TestBellmanFordDetectsNegativeCycle(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, -5, 0)
	g.AddEdge(2, 1, 2, 0)
	_, cyc, ok := bellmanFordFrom(g, 0)
	if ok {
		t.Fatal("negative cycle not detected")
	}
	if err := cyc.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if cyc.Cost(g) >= 0 {
		t.Fatalf("cycle cost %d not negative", cyc.Cost(g))
	}
}

func TestNegativeCycleAbsent(t *testing.T) {
	g := mkWeighted(t)
	if _, _, found := negativeCycle(g); found {
		t.Fatal("found phantom negative cycle")
	}
}

func TestNegativeCycleUnreachableFromZero(t *testing.T) {
	// Negative cycle in a component unreachable from vertex 0; the
	// all-sources variant must still find it.
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(2, 3, -5, 0)
	g.AddEdge(3, 2, 1, 0)
	cyc, _, found := negativeCycle(g)
	if !found {
		t.Fatal("missed negative cycle")
	}
	if err := cyc.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if cyc.Cost(g) >= 0 {
		t.Fatalf("cycle cost %d", cyc.Cost(g))
	}
}

func TestPotentialsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), int64(r.Intn(40)-5), 0)
		}
		cyc, pot, found := negativeCycle(g)
		if found {
			// Negative cycle: verify it is genuine.
			return cyc.Validate(g, true) == nil && cyc.Cost(g) < 0
		}
		for _, e := range g.Edges() {
			if e.Cost+pot[e.From]-pot[e.To] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
