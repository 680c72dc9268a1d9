package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
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

// forEachFlowCase runs check on every (graph, k, weighting) case the
// kernel comparisons share: 15 seeded random graphs (k 0–6) and 3,000
// tie-heavy ones (weights 0–3, n 4–44, k 0–5), where equal-length paths
// abound and the tie rule decides which of several optimal flows a kernel
// returns, each under four weightings. One solver serves all cases of a
// graph, so they also exercise its scratch reuse.
func forEachFlowCase(check func(label string, g *graph.Digraph, s, t graph.NodeID, kf *KFlowSolver, k int, lw shortest.LinWeight)) {
	weights := []shortest.LinWeight{
		shortest.LinCost, shortest.LinDelay, shortest.LinCombine(3, 2), shortest.LinCombine(1, 1),
	}
	for seed := int64(0); seed < 15; seed++ {
		g, s, t := randomFlowGraph(seed, 24, 80, 4)
		kf := NewKFlowSolver(graph.NewCSR(g))
		for k := 0; k <= 6; k++ {
			for _, lw := range weights {
				check(fmt.Sprintf("seed %d k %d %+v", seed, k, lw), g, s, t, kf, k, lw)
			}
		}
	}
	for seed := int64(0); seed < 3000; seed++ {
		g, s, t := tieHeavyFlowGraph(seed)
		kf := NewKFlowSolver(graph.NewCSR(g))
		for k := 0; k <= 5; k++ {
			for _, lw := range weights {
				check(fmt.Sprintf("tie-heavy seed %d (n %d) k %d %+v", seed, g.NumNodes(), k, lw), g, s, t, kf, k, lw)
			}
		}
	}
}

// sameErr fails unless both kernels succeeded or both failed with the same
// text, and reports whether they succeeded.
func sameErr(t *testing.T, label string, errWant, errGot error) bool {
	t.Helper()
	if (errWant == nil) != (errGot == nil) || errWant != nil && errWant.Error() != errGot.Error() {
		t.Fatalf("%s: err %v, want %v", label, errGot, errWant)
	}
	return errWant == nil
}

// TestKFlowSolverMatchesSpec holds the solver to its rule written out
// (specMinCostKFlow, ref_test.go, which also checks each round's
// invariants): the same flows edge for edge, the same errors, the same
// augmentation, relaxation and infeasibility counts, and the same augment
// events (each round's μ and pops).
func TestKFlowSolverMatchesSpec(t *testing.T) {
	forEachFlowCase(func(label string, g *graph.Digraph, s, tt graph.NodeID, kf *KFlowSolver, k int, lw shortest.LinWeight) {
		ms := obs.New(&obs.ManualClock{}).FlowMetrics()
		mc := obs.New(&obs.ManualClock{}).FlowMetrics()
		rs, rc := rec.New(nil, 8), rec.New(nil, 8)
		kf.SetRecorder(rc)
		defer kf.SetRecorder(nil)
		fs, errS := specMinCostKFlow(g, s, tt, k, lw, ms, rs)
		fc, errC := kf.MinCostKFlow(s, tt, k, lw, mc, nil)
		if sameErr(t, label, errS, errC) {
			idsS, idsC := sortedIDs(fs), sortedIDs(fc)
			if len(idsS) != len(idsC) {
				t.Fatalf("%s: %d flow edges, spec %d", label, len(idsC), len(idsS))
			}
			for i := range idsS {
				if idsS[i] != idsC[i] {
					t.Fatalf("%s: flow edge %d: %d, spec %d", label, i, idsC[i], idsS[i])
				}
			}
		}
		if ms.Augmentations.Value() != mc.Augmentations.Value() ||
			ms.Relaxations.Value() != mc.Relaxations.Value() ||
			ms.Infeasible.Value() != mc.Infeasible.Value() {
			t.Fatalf("%s: metrics (aug %d, relax %d, infeasible %d), spec (%d, %d, %d)", label,
				mc.Augmentations.Value(), mc.Relaxations.Value(), mc.Infeasible.Value(),
				ms.Augmentations.Value(), ms.Relaxations.Value(), ms.Infeasible.Value())
		}
		evS, evC := rs.Events(), rc.Events()
		if len(evS) != len(evC) {
			t.Fatalf("%s: %d augment events, spec %d", label, len(evC), len(evS))
		}
		for i := range evS {
			if evS[i].Args != evC[i].Args {
				t.Fatalf("%s: augment event %d: %v, spec %v", label, i, evC[i].Args, evS[i].Args)
			}
		}
	})
}

// TestKFlowSolverMatchesDigraph holds the solver to the Digraph kernel it
// replaced (minCostKFlow, ref_test.go) as an optimum oracle: the same
// errors, augmentation and infeasibility counts, and flows of the same
// weight. The edge sets may differ where several optimal flows tie, because
// the kernels break ties differently (TestKFlowSolverMatchesSpec pins the
// solver's choice).
func TestKFlowSolverMatchesDigraph(t *testing.T) {
	forEachFlowCase(func(label string, g *graph.Digraph, s, tt graph.NodeID, kf *KFlowSolver, k int, lw shortest.LinWeight) {
		md := obs.New(&obs.ManualClock{}).FlowMetrics()
		mc := obs.New(&obs.ManualClock{}).FlowMetrics()
		w := func(e graph.Edge) int64 { return lw.Of(e.Cost, e.Delay) }
		fd, errD := minCostKFlow(g, s, tt, k, w, md, nil)
		fc, errC := kf.MinCostKFlow(s, tt, k, lw, mc, nil)
		if sameErr(t, label, errD, errC) {
			if wd, wc := fd.Weight(g, lw), fc.Weight(g, lw); wd != wc {
				t.Fatalf("%s: flow weight %d, oracle %d", label, wc, wd)
			}
		}
		if md.Augmentations.Value() != mc.Augmentations.Value() ||
			md.Infeasible.Value() != mc.Infeasible.Value() {
			t.Fatalf("%s: metrics (aug %d, infeasible %d), oracle (%d, %d)", label,
				mc.Augmentations.Value(), mc.Infeasible.Value(),
				md.Augmentations.Value(), md.Infeasible.Value())
		}
	})
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

// TestKFlowSolverAtProbeLimit runs flows with k ≥ 2 at the edge of the
// domain phase 1 admits, q·Σcost + p·Σdelay = 2^60 exactly (core.checkProbe),
// where rounds 2..k search from both ends over potentials that may be
// negative. The solver must not panic and must match the spec, which
// checks every round's invariants, edge for edge, and the oracle in flow
// weight. The cases are a Suurballe trap whose five edges carry all of
// Σcost = 2^30 (round 2 cancels the middle edge), and the tie-heavy graphs
// with their weights scaled by a power of two and a padding edge between
// two extra vertices topping the weighted sum up to 2^60.
func TestKFlowSolverAtProbeLimit(t *testing.T) {
	const limit = int64(1) << 60
	check := func(label string, g *graph.Digraph, s, tt graph.NodeID, k int, lw shortest.LinWeight) {
		t.Helper()
		var sumC, sumD int64
		for _, e := range g.Edges() {
			sumC += e.Cost
			sumD += e.Delay
		}
		if w := lw.Q*sumC + lw.P*sumD; w != limit {
			t.Fatalf("%s: weighted sum %d, want 2^60", label, w)
		}
		kf := NewKFlowSolver(graph.NewCSR(g))
		fs, errS := specMinCostKFlow(g, s, tt, k, lw, nil, nil)
		fc, errC := kf.MinCostKFlow(s, tt, k, lw, nil, nil)
		oracle := func(e graph.Edge) int64 { return lw.Of(e.Cost, e.Delay) }
		fd, errD := minCostKFlow(g, s, tt, k, oracle, nil, nil)
		sameErr(t, label+" (oracle)", errD, errC)
		if sameErr(t, label, errS, errC) {
			if ids, want := sortedIDs(fc), sortedIDs(fs); fmt.Sprint(ids) != fmt.Sprint(want) {
				t.Fatalf("%s: flow %v, spec %v", label, ids, want)
			}
			if wc, wd := fc.Weight(g, lw), fd.Weight(g, lw); wc != wd {
				t.Fatalf("%s: flow weight %d, oracle %d", label, wc, wd)
			}
		}
	}

	trap := graph.New(4) // s=0, a=1, b=2, t=3
	trap.AddEdge(0, 1, 1<<27, 0)
	trap.AddEdge(1, 2, 1<<27, 0)
	trap.AddEdge(2, 3, 1<<27, 0)
	trap.AddEdge(0, 2, 1<<28+1<<26, 0)
	trap.AddEdge(1, 3, 1<<28+1<<26, 0)
	check("trap", trap, 0, 3, 2, shortest.LinCombine(1<<30, 0))

	for seed := int64(0); seed < 300; seed++ {
		g, s, tt := tieHeavyFlowGraph(seed)
		var sum int64 // Σcost + Σdelay; the weighting puts 2^j on both
		for _, e := range g.Edges() {
			sum += e.Cost + e.Delay
		}
		j := 60
		for int64(1)<<j > limit/max(sum, 1) {
			j--
		}
		pad := g.AddNode()
		g.AddEdge(pad, g.AddNode(), limit>>j-sum, 0)
		for k := 2; k <= 4; k++ {
			check(fmt.Sprintf("tie-heavy seed %d k %d", seed, k), g, s, tt, k, shortest.LinCombine(1<<j, 1<<j))
		}
	}
}
