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

// maskedWeight is the Digraph-closure equivalent of lw under an alive mask.
func maskedWeight(lw LinWeight, alive []bool) Weight {
	return func(e graph.Edge) int64 {
		if alive != nil && !alive[e.ID] {
			return maskedW
		}
		return lw.Of(e.Cost, e.Delay)
	}
}

// TestSPFADetectorMatchesBellmanFord is the detector's property test: over
// random multigraphs with flipped (mixed) CSR orientation and random alive
// masks, every SPFA kernel's verdict equals the pass-based Bellman–Ford's,
// and every cycle it returns is a genuine negative cycle of alive edges.
func TestSPFADetectorMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, c := mirrorPair(t, seed+500, n, n+rng.Intn(3*n), rng.Intn(n+1))
		lw := LinCombine(int64(rng.Intn(5))-1, int64(rng.Intn(3)))
		var alive []bool
		if seed%3 != 0 {
			alive = make([]bool, g.NumEdges())
			for i := range alive {
				alive[i] = rng.Intn(5) != 0
			}
		}
		w := maskedWeight(lw, alive)
		ws, bfWS := NewWorkspace(n), NewWorkspace(n)

		// All-sources seeding, CSR and Digraph kernels.
		_, cyc, ok := SPFAAllCSRInto(ws, c, lw, alive)
		_, _, bfOK := BellmanFordAllCSRInto(bfWS, c, lw, alive)
		if ok != bfOK {
			t.Fatalf("seed %d: SPFAAllCSRInto verdict %v, Bellman–Ford %v", seed, ok, bfOK)
		}
		if !ok {
			checkCycle(t, "SPFAAllCSRInto", c, lw, alive, cyc)
		}
		_, cyc, ok = SPFAAllInto(ws, g, w)
		if _, _, bfOK := BellmanFordAllInto(bfWS, g, w); ok != bfOK {
			t.Fatalf("seed %d: SPFAAllInto verdict %v, Bellman–Ford %v", seed, ok, bfOK)
		}
		if !ok {
			checkCycle(t, "SPFAAllInto", c, lw, alive, cyc)
		}

		// Single-source seeding: only cycles reachable from s count. The
		// masking sentinel needs all-sources seeding (every distance ≤ 0),
		// so this leg runs unmasked.
		s := graph.NodeID(rng.Intn(n))
		spT, cyc, ok := SPFAInto(ws, g, s, maskedWeight(lw, nil))
		bfT, _, bfOK := BellmanFordInto(bfWS, g, s, maskedWeight(lw, nil))
		if ok != bfOK {
			t.Fatalf("seed %d: SPFAInto verdict %v, Bellman–Ford %v", seed, ok, bfOK)
		}
		if !ok {
			checkCycle(t, "SPFAInto", c, lw, nil, cyc)
			continue
		}
		for v := range spT.Dist {
			if spT.Dist[v] != bfT.Dist[v] {
				t.Fatalf("seed %d: SPFAInto dist[%d] = %d, Bellman–Ford %d", seed, v, spT.Dist[v], bfT.Dist[v])
			}
		}
	}
}

// cycleWithFan builds the detector's worst case for a path-length trigger:
// a negative cycle 0→1→…→L-1→0 of weight -1 per edge, and n-L leaves hanging
// off vertex 0 by zero-weight edges. Every lap of the cycle improves vertex
// 0 and so re-relaxes all n-L leaves, while tentative paths grow by only L
// edges per lap — a rule that waits for an n-edge path pays about n²/L
// relaxations before it looks.
func cycleWithFan(n, L int) (*graph.Digraph, *graph.CSR) {
	g := graph.New(n)
	for i := 0; i < L; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%L), -1, 0)
	}
	for v := L; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v), 0, 0)
	}
	return g, graph.NewCSR(g)
}

// TestSPFAFindsShortCycleFast pins the amortized parent-graph search: the
// cycle is in the parent graph after one lap, so the walk that follows the
// next n relaxations must report it.
func TestSPFAFindsShortCycleFast(t *testing.T) {
	const n, L = 2000, 4
	g, c := cycleWithFan(n, L)
	for _, tc := range []struct {
		name string
		run  func(ws *Workspace) (graph.Cycle, bool)
	}{
		{"SPFAAllCSRInto", func(ws *Workspace) (graph.Cycle, bool) {
			_, cyc, ok := SPFAAllCSRInto(ws, c, LinCost, nil)
			return cyc, ok
		}},
		{"SPFAAllInto", func(ws *Workspace) (graph.Cycle, bool) {
			_, cyc, ok := SPFAAllInto(ws, g, CostWeight)
			return cyc, ok
		}},
		{"SPFAInto", func(ws *Workspace) (graph.Cycle, bool) {
			_, cyc, ok := SPFAInto(ws, g, 0, CostWeight)
			return cyc, ok
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
