package residual_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// requireSameResidual asserts the two residual graphs are identical: same
// edges (endpoints, weights, orientation bits), same frozen rows (so the
// searches' merged adjacency ORDER agrees — order differences would change
// solver behaviour), and same tracked solution. This is the contract Update
// promises against a fresh Build.
func requireSameResidual(t *testing.T, got, want *residual.Graph) {
	t.Helper()
	gv, wv := got.View(), want.View()
	if gv.NumNodes() != wv.NumNodes() || gv.NumEdges() != wv.NumEdges() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			gv.NumNodes(), wv.NumNodes(), gv.NumEdges(), wv.NumEdges())
	}
	for i := 0; i < gv.NumEdges(); i++ {
		id := graph.EdgeID(i)
		if gv.Tail(id) != wv.Tail(id) || gv.Head(id) != wv.Head(id) ||
			gv.Cost(id) != wv.Cost(id) || gv.Delay(id) != wv.Delay(id) || gv.Reversed(id) != wv.Reversed(id) {
			t.Fatalf("edge %d: got %d→%d (%d,%d) rev=%v, want %d→%d (%d,%d) rev=%v", id,
				gv.Tail(id), gv.Head(id), gv.Cost(id), gv.Delay(id), gv.Reversed(id),
				wv.Tail(id), wv.Head(id), wv.Cost(id), wv.Delay(id), wv.Reversed(id))
		}
	}
	if gv.Mixed() != wv.Mixed() {
		t.Fatalf("Mixed %v vs %v", gv.Mixed(), wv.Mixed())
	}
	sameRow := func(kind string, v int, a, b []graph.EdgeID) {
		if len(a) != len(b) {
			t.Fatalf("node %d: %s-degree %d vs %d", v, kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: %s row differs at %d: %d vs %d", v, kind, i, a[i], b[i])
			}
		}
	}
	for v := 0; v < gv.NumNodes(); v++ {
		sameRow("out", v, gv.OutRow(graph.NodeID(v)), wv.OutRow(graph.NodeID(v)))
		sameRow("in", v, gv.InRow(graph.NodeID(v)), wv.InRow(graph.NodeID(v)))
	}
	gs, ws := got.Solution(), want.Solution()
	if gs.Len() != ws.Len() {
		t.Fatalf("solution size %d vs %d", gs.Len(), ws.Len())
	}
	for _, id := range gs.IDs() {
		if !ws.Has(id) || !gv.Reversed(id) {
			t.Fatalf("solution sets differ at edge %d", id)
		}
	}
}

// diffUpdate drives one differential check on an instance: build the
// residual against the min-cost k-flow, Update it with the cycles leading
// to the min-delay k-flow (Proposition 8 supplies them), and require the
// result to be bit-identical to a fresh Build against that flow.
func diffUpdate(t *testing.T, ins graph.Instance, k int) bool {
	t.Helper()
	g := ins.G
	if flow.MaxDisjointPaths(g, ins.S, ins.T) < k {
		return false
	}
	f1, err1 := flow.MinCostKFlow(g, ins.S, ins.T, k, shortest.LinCost)
	f2, err2 := flow.MinCostKFlow(g, ins.S, ins.T, k, shortest.LinDelay)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: flows failed: %v %v", ins.Name, err1, err2)
	}
	rg := residual.Build(g, f1.Edges)
	cycles, err := rg.SolutionCycles(f2.Edges)
	if err != nil {
		t.Fatalf("%s: SolutionCycles: %v", ins.Name, err)
	}
	next, err := rg.ApplyAll(cycles)
	if err != nil {
		t.Fatalf("%s: ApplyAll: %v", ins.Name, err)
	}
	if err := rg.Update(cycles); err != nil {
		t.Fatalf("%s: Update: %v", ins.Name, err)
	}
	requireSameResidual(t, rg, residual.Build(g, next))
	// A second hop back completes the round trip: flipping the same original
	// edges again must land exactly on the f1 residual.
	back, err := rg.SolutionCycles(f1.Edges)
	if err != nil {
		t.Fatalf("%s: SolutionCycles back: %v", ins.Name, err)
	}
	if err := rg.Update(back); err != nil {
		t.Fatalf("%s: Update back: %v", ins.Name, err)
	}
	requireSameResidual(t, rg, residual.Build(g, f1.Edges))
	return true
}

// TestUpdateMatchesBuild runs the differential over every generator family
// (ER, grid, layered DAG, geometric/Waxman, ring-of-trees ISP) at several
// seeds, so the incremental path is exercised across sparse, dense, layered
// and hub-heavy adjacency shapes.
func TestUpdateMatchesBuild(t *testing.T) {
	mks := []func(seed int64) graph.Instance{
		func(s int64) graph.Instance { return gen.ER(s, 16+int(s%12), 0.25, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Grid(s, 4, 4+int(s%3), gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Layered(s, 4, 4, 0.6, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Geometric(s, 18, 0.4, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.ISP(s, 8, 2, gen.DefaultWeights()) },
	}
	checked := 0
	for round := 0; round < 40; round++ {
		ins := mks[round%len(mks)](int64(round))
		for k := 1; k <= 3; k++ {
			if diffUpdate(t, ins, k) {
				checked++
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d differential checks ran; generators too infeasible", checked)
	}
}

// TestUpdateRejectsBadCyclesUntouched: a failed Update must leave the
// receiver exactly as it was.
func TestUpdateRejectsBadCyclesUntouched(t *testing.T) {
	ins := gen.ER(7, 14, 0.3, gen.DefaultWeights())
	g := ins.G
	k := 2
	if flow.MaxDisjointPaths(g, ins.S, ins.T) < k {
		t.Skip("instance infeasible for k=2")
	}
	f1, err := flow.MinCostKFlow(g, ins.S, ins.T, k, shortest.LinCost)
	if err != nil {
		t.Fatal(err)
	}
	rg := residual.Build(g, f1.Edges)
	bad := []graph.Cycle{{Edges: []graph.EdgeID{0, 0}}}
	if err := rg.Update(bad); err == nil {
		t.Fatal("duplicate-edge cycle accepted")
	}
	requireSameResidual(t, rg, residual.Build(g, f1.Edges))
}

// FuzzUpdateMatchesBuild fuzzes the differential over random dense
// multigraphs: whatever instance the bytes decode to, Update must agree
// with Build.
func FuzzUpdateMatchesBuild(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3))
	f.Add(int64(42), uint8(9), uint8(4))
	f.Add(int64(-7), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mult uint8) {
		n := 4 + int(nRaw%12)
		density := 0.15 + float64(mult%5)*0.1
		ins := gen.ER(seed, n, density, gen.DefaultWeights())
		for k := 1; k <= 2; k++ {
			diffUpdate(t, ins, k)
		}
	})
}
