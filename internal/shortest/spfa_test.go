package shortest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randNegCostGraph builds a small random graph whose costs reach down to
// -lowest, packed as an unflipped CSR view.
func randNegCostGraph(seed int64, lowest int) (*graph.Digraph, *graph.CSR) {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(10)
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(25+lowest)-lowest), 0)
		}
	}
	return g, graph.NewCSR(g)
}

// TestSPFAMatchesBellmanFord: the budgeted SPFA entry reaches the
// pass-based scan's verdict, and any cycle it reports is negative.
func TestSPFAMatchesBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		g, c := randNegCostGraph(seed, 8)
		ws := NewWorkspace(g.NumNodes())
		_, _, bfOK := BellmanFordAllCSRInto(ws, c, LinCost, nil)
		spCyc, found, verdict := SPFAAllBoundedCSRInto(ws, c, LinCost, 1<<30)
		if !verdict || found == bfOK {
			return false
		}
		return !found || spCyc.Validate(g, true) == nil && spCyc.Cost(g) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSPFAAllMatchesBellmanFordAll(t *testing.T) {
	f := func(seed int64) bool {
		g, c := randNegCostGraph(seed, 6)
		ws := NewWorkspace(g.NumNodes())
		_, _, bfOK := BellmanFordAllCSRInto(ws, c, LinCost, nil)
		spT, spCyc, spOK := SPFAAllCSRInto(ws, c, LinCost, nil)
		if bfOK != spOK {
			return false
		}
		if !spOK {
			return spCyc.Validate(g, true) == nil && spCyc.Cost(g) < 0
		}
		// Distances must be valid potentials.
		for _, e := range g.EdgesView() {
			if e.Cost+spT.Dist[e.From]-spT.Dist[e.To] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSPFASimple(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 1, -3, 0)
	g.AddEdge(1, 3, 2, 0)
	tr, _, ok := SPFAAllCSRInto(NewWorkspace(4), graph.NewCSR(g), LinCost, nil)
	// All-sources distances: every vertex starts at 0.
	want := []int64{0, -3, 0, -1}
	for v, d := range want {
		if !ok || tr.Dist[v] != d {
			t.Fatalf("ok=%v dist=%v, want %v", ok, tr.Dist, want)
		}
	}
}
