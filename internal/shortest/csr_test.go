package shortest

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomView builds a seeded random multigraph, packs it, and flips a
// random subset of its edges. Weights land in [-25, 25) after flips — the
// residual shape the solve-path kernels actually see.
func randomView(seed int64, n, m, flips int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(25)), int64(rng.Intn(25)))
	}
	c := graph.NewCSR(g)
	for i := 0; i < flips; i++ {
		c.Flip(graph.EdgeID(rng.Intn(m)))
	}
	return c
}

func sameCycle(t *testing.T, label string, a, b graph.Cycle) {
	t.Helper()
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("%s: cycle lengths %d vs %d", label, len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: cycle edge %d: %d vs %d", label, i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestDijkstraCSRMatchesDigraph: on an unflipped view the CSR kernel is
// bit-identical to the Digraph kernel, and a flipped view is rejected.
func TestDijkstraCSRMatchesDigraph(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 200))
		g := graph.New(20)
		for i := 0; i < 70; i++ {
			u, v := graph.NodeID(rng.Intn(20)), graph.NodeID(rng.Intn(20))
			g.AddEdge(u, v, int64(rng.Intn(25)), int64(rng.Intn(25)))
		}
		c := graph.NewCSR(g)
		s := graph.NodeID(seed % 20)
		wsD, wsC := NewWorkspace(g.NumNodes()), NewWorkspace(g.NumNodes())
		td := DijkstraInto(wsD, g, s, CostWeight)
		tc := DijkstraCSRInto(wsC, c, s, LinCost)
		sameTree(t, "dijkstra", td, tc)
	}
	c := randomView(1, 5, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("DijkstraCSRInto accepted a flipped view")
		}
	}()
	DijkstraCSRInto(NewWorkspace(5), c, 0, LinCost)
}

func TestLinWeightMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		q := rng.Int63n(1<<31) - (1 << 30)
		p := rng.Int63n(1<<31) - (1 << 30)
		cost := rng.Int63n(1<<31) - (1 << 30)
		delay := rng.Int63n(1<<31) - (1 << 30)
		e := graph.Edge{Cost: cost, Delay: delay}
		if got, want := LinCombine(q, p).Of(cost, delay), Combine(q, p)(e); got != want {
			t.Fatalf("q=%d p=%d c=%d d=%d: %d vs %d", q, p, cost, delay, got, want)
		}
	}
}
