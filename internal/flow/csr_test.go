package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shortest"
)

// randomFlowGraph builds a seeded nonnegative-weight multigraph with a
// planted fan of s→t paths so k-flows up to width are feasible.
func randomFlowGraph(seed int64, n, m, width int) (*graph.Digraph, graph.NodeID, graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	s, t := graph.NodeID(0), graph.NodeID(n-1)
	for w := 0; w < width; w++ {
		mid := graph.NodeID(1 + rng.Intn(n-2))
		g.AddEdge(s, mid, int64(rng.Intn(20)), int64(rng.Intn(20)))
		g.AddEdge(mid, t, int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	return g, s, t
}

func sortedIDs(f UnitFlow) []graph.EdgeID {
	return graph.SortedEdgeIDs(f.Edges.IDs())
}

// tieHeavyFlowGraph builds a seeded multigraph on n nodes whose costs and
// delays are drawn from 0–3, zeros included, so equal-length paths and
// zero-weight cycles abound and tie order decides which of several optimal
// flows a kernel returns. s = 0 and t = n−1; about half the graphs get a
// planted fan of s→t paths, the rest are often too thin for k.
func tieHeavyFlowGraph(seed int64) (*graph.Digraph, graph.NodeID, graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(41)
	g := graph.New(n)
	s, t := graph.NodeID(0), graph.NodeID(n-1)
	w := func() int64 { return int64(rng.Intn(4)) }
	if rng.Intn(2) == 0 {
		for i := 0; i < 1+rng.Intn(5); i++ {
			mid := graph.NodeID(1 + rng.Intn(n-2))
			g.AddEdge(s, mid, w(), w())
			g.AddEdge(mid, t, w(), w())
		}
	}
	for i, m := 0, n+rng.Intn(3*n); i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, w(), w())
	}
	return g, s, t
}

// TestKFlowSolverMatchesDigraph holds the CSR solver to the Digraph kernel
// it replaced (minCostKFlow, ref_test.go): the same flows edge for edge
// (not just the same optima), the same errors, and the same augmentation
// and infeasibility counts. Relaxations may only be fewer, because the
// solver's first and last rounds stop once t settles. Beside the seeded
// random graphs it runs 3,000 tie-heavy ones (weights 0–3, n 4–44, k 0–5),
// where a round that augmented along any but the reference's parent chain
// would pick a different optimal flow. (Both kernels pop from pq.Heap; its
// order against the heap it replaced is pq's own TestHeapMatchesReference.)
func TestKFlowSolverMatchesDigraph(t *testing.T) {
	weights := []shortest.LinWeight{
		shortest.LinCost, shortest.LinDelay, shortest.LinCombine(3, 2), shortest.LinCombine(1, 1),
	}
	compare := func(label string, g *graph.Digraph, s, tt graph.NodeID, kf *KFlowSolver, k int, lw shortest.LinWeight) {
		t.Helper()
		md := obs.New(&obs.ManualClock{}).FlowMetrics()
		mc := obs.New(&obs.ManualClock{}).FlowMetrics()
		w := func(e graph.Edge) int64 { return lw.Of(e.Cost, e.Delay) }
		fd, errD := minCostKFlow(g, s, tt, k, w, md, nil)
		fc, errC := kf.MinCostKFlow(s, tt, k, lw, mc, nil)
		if (errD == nil) != (errC == nil) {
			t.Fatalf("%s k %d %+v: err %v vs %v", label, k, lw, errD, errC)
		}
		if errD != nil {
			if errD.Error() != errC.Error() {
				t.Fatalf("%s k %d %+v: err %q vs %q", label, k, lw, errD, errC)
			}
		} else {
			idsD, idsC := sortedIDs(fd), sortedIDs(fc)
			if len(idsD) != len(idsC) {
				t.Fatalf("%s k %d %+v: %d vs %d flow edges", label, k, lw, len(idsD), len(idsC))
			}
			for i := range idsD {
				if idsD[i] != idsC[i] {
					t.Fatalf("%s k %d %+v: flow edge %d: %d vs %d", label, k, lw, i, idsD[i], idsC[i])
				}
			}
		}
		if md.Augmentations.Value() != mc.Augmentations.Value() ||
			md.Infeasible.Value() != mc.Infeasible.Value() ||
			mc.Relaxations.Value() > md.Relaxations.Value() {
			t.Fatalf("%s k %d %+v: metrics (aug %d, relax %d, infeasible %d) vs reference (%d, %d, %d)",
				label, k, lw,
				mc.Augmentations.Value(), mc.Relaxations.Value(), mc.Infeasible.Value(),
				md.Augmentations.Value(), md.Relaxations.Value(), md.Infeasible.Value())
		}
	}
	for seed := int64(0); seed < 15; seed++ {
		g, s, tt := randomFlowGraph(seed, 24, 80, 4)
		kf := NewKFlowSolver(graph.NewCSR(g))
		for k := 0; k <= 6; k++ {
			for _, lw := range weights {
				compare(fmt.Sprintf("seed %d", seed), g, s, tt, kf, k, lw)
			}
		}
	}
	for seed := int64(0); seed < 3000; seed++ {
		g, s, tt := tieHeavyFlowGraph(seed)
		kf := NewKFlowSolver(graph.NewCSR(g))
		for k := 0; k <= 5; k++ {
			for _, lw := range weights {
				compare(fmt.Sprintf("tie-heavy seed %d (n %d)", seed, g.NumNodes()), g, s, tt, kf, k, lw)
			}
		}
	}
}

// TestKFlowSolverReuseIsClean reruns the same solve on a reused solver and
// checks the second answer matches the first (scratch resets fully).
func TestKFlowSolverReuseIsClean(t *testing.T) {
	g, s, tt := randomFlowGraph(99, 24, 80, 4)
	kf := NewKFlowSolver(graph.NewCSR(g))
	f1, err1 := kf.MinCostKFlow(s, tt, 3, shortest.LinCost, nil, nil)
	// An interleaved different-weight solve dirties every scratch array.
	if _, err := kf.MinCostKFlow(s, tt, 4, shortest.LinDelay, nil, nil); err != nil {
		t.Fatalf("interleaved solve: %v", err)
	}
	f2, err2 := kf.MinCostKFlow(s, tt, 3, shortest.LinCost, nil, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v %v", err1, err2)
	}
	ids1, ids2 := sortedIDs(f1), sortedIDs(f2)
	if len(ids1) != len(ids2) {
		t.Fatalf("reuse drift: %d vs %d edges", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("reuse drift at %d: %d vs %d", i, ids1[i], ids2[i])
		}
	}
}
