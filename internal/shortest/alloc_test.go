package shortest_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// lgridResidual returns an N≈5k layered grid with its cheapest-delay s→t
// path flipped in a CSR view — the residual shape the cancellation loop
// searches. Under delay the flipped path is optimal, so
// the residual has no negative cycle; under cost it is not, so the cheaper
// detours close negative cycles through the reversed edges.
func lgridResidual() *graph.CSR {
	ins := gen.LayeredGrid(7, 50, 100, gen.DefaultWeights())
	c := graph.NewCSR(ins.G)
	tree, _, _ := shortest.BellmanFordCSRInto(shortest.NewWorkspace(c.NumNodes()), c, ins.S, shortest.LinDelay)
	for v := ins.T; v != ins.S; {
		id := tree.Parent[v]
		v = c.Tail(id)
		c.Flip(id)
	}
	return c
}

// TestSPFAAllocs is the runtime witness behind the SPFA kernel's noalloc
// contract: on a reused Workspace the no-cycle verdict allocates nothing,
// and a found cycle allocates exactly its returned edge slice.
func TestSPFAAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N≈5k allocation witness: skipped under -short")
	}
	c := lgridResidual()
	ws := shortest.NewWorkspace(c.NumNodes())
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
		{"SPFAAllBoundedCSRInto/no-cycle", false, func() (graph.Cycle, bool) {
			cyc, found, _ := shortest.SPFAAllBoundedCSRInto(ws, c, shortest.LinDelay, 1<<30)
			return cyc, !found
		}},
		{"SPFAAllBoundedCSRInto/cycle", true, func() (graph.Cycle, bool) {
			cyc, found, _ := shortest.SPFAAllBoundedCSRInto(ws, c, shortest.LinCost, 1<<30)
			return cyc, !found
		}},
	} {
		cyc, ok := tc.run() // also warms the workspace
		if ok == tc.wantCycle {
			t.Fatalf("%s: verdict ok=%v", tc.name, ok)
		}
		if tc.wantCycle {
			if err := cyc.Validate(c, true); err != nil || c.TotalCost(cyc.Edges) >= 0 {
				t.Fatalf("%s: cycle of cost %d is not a negative simple cycle: %v", tc.name, c.TotalCost(cyc.Edges), err)
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
