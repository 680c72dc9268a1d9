package shortest_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// lgridResidual returns an N≈5k layered grid with its cheapest-delay s→t
// path flipped, as a Digraph and its CSR mirror — the residual shape the
// cancellation loop searches. Under delay the flipped path is optimal, so
// the residual has no negative cycle; under cost it is not, so the cheaper
// detours close negative cycles through the reversed edges.
func lgridResidual(t *testing.T) (*graph.Digraph, *graph.CSR) {
	t.Helper()
	ins := gen.LayeredGrid(7, 50, 100, gen.DefaultWeights())
	g := ins.G
	tree := shortest.Dijkstra(g, ins.S, shortest.DelayWeight)
	c := graph.NewCSR(g)
	for v := ins.T; v != ins.S; {
		id := tree.Parent[v]
		v = g.Edge(id).From
		g.FlipEdge(id)
		c.Flip(id)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	return g, c
}

// TestSPFAAllocs is the runtime witness behind the SPFA kernels' noalloc
// contract: on a reused Workspace the no-cycle verdict allocates nothing,
// and a found cycle allocates exactly its returned edge slice.
func TestSPFAAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N≈5k allocation witness: skipped under -short")
	}
	g, c := lgridResidual(t)
	ws := shortest.NewWorkspace(g.NumNodes())
	for _, tc := range []struct {
		name      string
		wantCycle bool
		run       func() (graph.Cycle, bool)
	}{
		{"SPFAAllCSRInto/no-cycle", false, func() (graph.Cycle, bool) {
			_, cyc, ok := shortest.SPFAAllCSRInto(ws, c, shortest.LinDelay, nil)
			return cyc, ok
		}},
		{"SPFAAllCSRInto/cycle", true, func() (graph.Cycle, bool) {
			_, cyc, ok := shortest.SPFAAllCSRInto(ws, c, shortest.LinCost, nil)
			return cyc, ok
		}},
		{"SPFAAllInto/no-cycle", false, func() (graph.Cycle, bool) {
			_, cyc, ok := shortest.SPFAAllInto(ws, g, shortest.DelayWeight)
			return cyc, ok
		}},
		{"SPFAAllInto/cycle", true, func() (graph.Cycle, bool) {
			_, cyc, ok := shortest.SPFAAllInto(ws, g, shortest.CostWeight)
			return cyc, ok
		}},
	} {
		cyc, ok := tc.run() // also warms the workspace
		if ok == tc.wantCycle {
			t.Fatalf("%s: verdict ok=%v", tc.name, ok)
		}
		if tc.wantCycle {
			if err := cyc.Validate(g, true); err != nil || cyc.Cost(g) >= 0 {
				t.Fatalf("%s: cycle of cost %d is not a negative simple cycle: %v", tc.name, cyc.Cost(g), err)
			}
		}
		want := 0.0
		if tc.wantCycle {
			want = 1
		}
		if got := testing.AllocsPerRun(5, func() { tc.run() }); got != want {
			t.Fatalf("%s: %v allocs/run, want %v", tc.name, got, want)
		}
	}
}
