package shortest_test

import (
	"runtime"
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
	g := ins.G
	delay := func(e graph.Edge) int64 { return e.Delay }
	tree := shortest.DijkstraInto(shortest.NewWorkspace(g.NumNodes()), g, ins.S, delay)
	c := graph.NewCSR(g)
	for v := ins.T; v != ins.S; {
		id := tree.Parent[v]
		v = g.Tail(id)
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

// TestDijkstraGrownWorkspaceAllocs is the runtime witness behind the
// heap's "New/Grow precap" waiver under DijkstraCSRInto's noalloc contract:
// a workspace created small and grown to N≈5k must serve its first
// Dijkstra without allocating. The count is taken around that single call
// with runtime.ReadMemStats, because testing.AllocsPerRun's warm-up run
// would absorb any first-call growth. Mallocs is process-wide, so a
// goroutine left over from another test can add to one reading; the
// witness takes the least of three fresh workspaces, while a kernel that
// allocates does so on every first call.
func TestDijkstraGrownWorkspaceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N≈5k allocation witness: skipped under -short")
	}
	ins := gen.LayeredGrid(7, 50, 100, gen.DefaultWeights())
	c := graph.NewCSR(ins.G)
	least := ^uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		ws := shortest.NewWorkspace(4)
		ws.Grow(c.NumNodes())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree := shortest.DijkstraCSRInto(ws, c, ins.S, shortest.LinDelay)
		runtime.ReadMemStats(&after)
		if tree.Dist[ins.T] == shortest.Inf {
			t.Fatal("t unreachable: the witness searched nothing")
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Fatalf("first DijkstraCSRInto on a grown workspace: %d allocations, want 0", least)
	}
}
