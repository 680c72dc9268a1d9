package shortest

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func randGraphWS(r *rand.Rand, n, m int, negative bool) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		c, d := int64(r.Intn(20)), int64(r.Intn(20))
		if negative {
			c -= 6
			d -= 6
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), c, d)
	}
	return g
}

func sameTree(t *testing.T, label string, a, b Tree) {
	t.Helper()
	if len(a.Dist) != len(b.Dist) {
		t.Fatalf("%s: tree sizes %d vs %d", label, len(a.Dist), len(b.Dist))
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("%s: node %d: (%d,%d) vs (%d,%d)",
				label, v, a.Dist[v], a.Parent[v], b.Dist[v], b.Parent[v])
		}
	}
}

// TestIntoVariantsMatchAllocating: every *_Into kernel must agree exactly
// with a run on a fresh workspace while ONE workspace is reused across many
// graphs of varying size — the reuse pattern the solver's hot loops rely
// on. Stale state from a previous (larger or negative-weight) search must
// never leak into the next result.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ws := NewWorkspace(1)
	for round := 0; round < 200; round++ {
		n := 2 + r.Intn(30)
		m := r.Intn(4 * n)
		negative := round%3 == 0
		g := randGraphWS(r, n, m, negative)
		c := graph.NewCSR(g)
		s := graph.NodeID(r.Intn(n))
		fresh := func() *Workspace { return NewWorkspace(n) }

		wantT, wantCyc, wantOK := SPFAAllCSRInto(fresh(), c, LinCost, nil)
		gotT, gotCyc, gotOK := SPFAAllCSRInto(ws, c, LinCost, nil)
		if wantOK != gotOK {
			t.Fatalf("spfa: ok %v vs %v", wantOK, gotOK)
		}
		sameTree(t, "spfa", wantT, gotT)
		sameCycle(t, "spfa", wantCyc, gotCyc)

		wantT, wantCyc, wantOK = BellmanFordCSRInto(fresh(), c, s, LinCost)
		gotT, gotCyc, gotOK = BellmanFordCSRInto(ws, c, s, LinCost)
		if wantOK != gotOK {
			t.Fatalf("bf: ok %v vs %v", wantOK, gotOK)
		}
		sameTree(t, "bf", wantT, gotT)
		sameCycle(t, "bf", wantCyc, gotCyc)

		wantT, wantCyc, wantOK = BellmanFordAllCSRInto(fresh(), c, LinCost, nil)
		gotT, gotCyc, gotOK = BellmanFordAllCSRInto(ws, c, LinCost, nil)
		if wantOK != gotOK {
			t.Fatalf("bfAll: ok %v vs %v", wantOK, gotOK)
		}
		sameTree(t, "bfAll", wantT, gotT)
		sameCycle(t, "bfAll", wantCyc, gotCyc)

		wantCyc2, wantNeg, wantDone := SPFAAllBoundedCSRInto(fresh(), c, LinCost, 1<<30)
		gotCyc2, gotNeg, gotDone := SPFAAllBoundedCSRInto(ws, c, LinCost, 1<<30)
		if wantNeg != gotNeg || wantDone != gotDone {
			t.Fatalf("spfaBounded: (%v,%v) vs (%v,%v)", wantNeg, wantDone, gotNeg, gotDone)
		}
		sameCycle(t, "spfaBounded", wantCyc2, gotCyc2)
	}
	// Grow never shrinks: a small request after the large graphs keeps the
	// arrays.
	grown := cap(ws.dist)
	ws.Grow(1)
	if cap(ws.dist) != grown {
		t.Fatalf("Grow(1) shrank the workspace from %d to %d", grown, cap(ws.dist))
	}
}

// TestWorkspaceTreeAliasing documents the aliasing contract: a returned
// tree is clobbered by the next *_Into call, and Clone detaches it.
func TestWorkspaceTreeAliasing(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(1, 2, 7, 1)
	c := graph.NewCSR(g)
	ws := NewWorkspace(3)
	first, _, _ := BellmanFordCSRInto(ws, c, 0, LinCost)
	kept := first.Clone()
	_, _, _ = BellmanFordCSRInto(ws, c, 2, LinCost) // clobbers `first`
	if first.Dist[1] == kept.Dist[1] && first.Dist[0] == kept.Dist[0] {
		t.Fatal("second search did not reuse the workspace arrays")
	}
	if kept.Dist[2] != 12 || kept.Dist[1] != 5 {
		t.Fatalf("clone corrupted: %v", kept.Dist)
	}
}
