package shortest

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// checkCycle asserts the detector's cycle contract on a CSR view: closed,
// vertex-simple, alive edges only, and strictly negative under lw.
func checkCycle(t *testing.T, label string, c *graph.CSR, lw LinWeight, alive []bool, cyc graph.Cycle) {
	t.Helper()
	if len(cyc.Edges) == 0 {
		t.Fatalf("%s: empty cycle", label)
	}
	seen := map[graph.NodeID]bool{}
	var w int64
	for i, id := range cyc.Edges {
		if alive != nil && !alive[id] {
			t.Fatalf("%s: cycle uses masked edge %d", label, id)
		}
		next := cyc.Edges[(i+1)%len(cyc.Edges)]
		if c.Head(id) != c.Tail(next) {
			t.Fatalf("%s: edge %d ends at %d, next edge %d starts at %d", label, id, c.Head(id), next, c.Tail(next))
		}
		if seen[c.Tail(id)] {
			t.Fatalf("%s: cycle repeats vertex %d", label, c.Tail(id))
		}
		seen[c.Tail(id)] = true
		w += lw.Of(c.Cost(id), c.Delay(id))
	}
	if w >= 0 {
		t.Fatalf("%s: cycle weight %d, want negative", label, w)
	}
}

// TestSPFADetectorMatchesBellmanFord is the detector's property test: over
// random multigraphs with flipped (mixed) CSR orientation and random alive
// masks, both SPFA entries' verdicts equal the pass-based Bellman–Ford's,
// and every cycle they return is a genuine negative cycle of alive edges.
func TestSPFADetectorMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		c := randomView(seed+500, n, n+rng.Intn(3*n), rng.Intn(n+1))
		lw := LinCombine(int64(rng.Intn(5))-1, int64(rng.Intn(3)))
		var alive []bool
		if seed%3 != 0 {
			alive = make([]bool, c.NumEdges())
			for i := range alive {
				alive[i] = rng.Intn(5) != 0
			}
		}
		ws, bfWS := NewWorkspace(n), NewWorkspace(n)
		_, cyc, ok := SPFAAllCSRInto(ws, c, lw, alive)
		_, _, bfOK := BellmanFordAllCSRInto(bfWS, c, lw, alive)
		if ok != bfOK {
			t.Fatalf("seed %d: SPFAAllCSRInto verdict %v, Bellman–Ford %v", seed, ok, bfOK)
		}
		if !ok {
			checkCycle(t, "SPFAAllCSRInto", c, lw, alive, cyc)
		}

		// The budgeted entry (unmasked, ample budget) must reach the same
		// verdict as the unmasked pass-based scan.
		cyc, found, verdict := SPFAAllBoundedCSRInto(ws, c, lw, 1<<30)
		_, _, bfOK = BellmanFordAllCSRInto(bfWS, c, lw, nil)
		if !verdict || found == bfOK {
			t.Fatalf("seed %d: SPFAAllBoundedCSRInto (found=%v, verdict=%v), Bellman–Ford ok=%v", seed, found, verdict, bfOK)
		}
		if found {
			checkCycle(t, "SPFAAllBoundedCSRInto", c, lw, nil, cyc)
		}
	}
}

// cycleWithFan builds the detector's worst case for a path-length trigger:
// a negative cycle 0→1→…→L-1→0 of weight -1 per edge, and n-L leaves hanging
// off vertex 0 by zero-weight edges. Every lap of the cycle improves vertex
// 0 and so re-relaxes all n-L leaves, while tentative paths grow by only L
// edges per lap — a rule that waits for an n-edge path pays about n²/L
// relaxations before it looks.
func cycleWithFan(n, L int) *graph.CSR {
	g := graph.New(n)
	for i := 0; i < L; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%L), -1, 0)
	}
	for v := L; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v), 0, 0)
	}
	return graph.NewCSR(g)
}

// TestSPFAFindsShortCycleFast pins the amortized parent-graph search: the
// cycle is in the parent graph after one lap, so the walk that follows the
// next n relaxations must report it.
func TestSPFAFindsShortCycleFast(t *testing.T) {
	const n, L = 2000, 4
	c := cycleWithFan(n, L)
	for _, tc := range []struct {
		name string
		run  func(ws *Workspace) (graph.Cycle, bool)
	}{
		{"SPFAAllCSRInto", func(ws *Workspace) (graph.Cycle, bool) {
			_, cyc, ok := SPFAAllCSRInto(ws, c, LinCost, nil)
			return cyc, ok
		}},
		{"SPFAAllBoundedCSRInto", func(ws *Workspace) (graph.Cycle, bool) {
			cyc, found, _ := SPFAAllBoundedCSRInto(ws, c, LinCost, 1<<30)
			return cyc, !found
		}},
	} {
		m := obs.New(nil).ShortestMetrics()
		ws := NewWorkspace(n)
		ws.SetMetrics(m)
		cyc, ok := tc.run(ws)
		if ok {
			t.Fatalf("%s: missed the negative cycle", tc.name)
		}
		checkCycle(t, tc.name, c, LinCost, nil, cyc)
		if len(cyc.Edges) != L {
			t.Fatalf("%s: cycle has %d edges, want %d", tc.name, len(cyc.Edges), L)
		}
		if got := m.Relaxations.Value(); got >= 4*n {
			t.Fatalf("%s: %d relaxations before detection, want < 4n = %d", tc.name, got, 4*n)
		}
		if m.NegCycles.Value() != 1 {
			t.Fatalf("%s: %d negative-cycle runs recorded, want 1", tc.name, m.NegCycles.Value())
		}
	}
}
