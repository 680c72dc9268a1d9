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

func TestLinWeightMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		q := rng.Int63n(1<<31) - (1 << 30)
		p := rng.Int63n(1<<31) - (1 << 30)
		cost := rng.Int63n(1<<31) - (1 << 30)
		delay := rng.Int63n(1<<31) - (1 << 30)
		if got, want := LinCombine(q, p).Of(cost, delay), q*cost+p*delay; got != want {
			t.Fatalf("q=%d p=%d c=%d d=%d: %d vs %d", q, p, cost, delay, got, want)
		}
	}
}
