package flow_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/shortest"
)

// TestAugmentRecordsSettled checks the augment events of a hand-solved
// flow: round index, s→t reduced distance μ and vertices popped by both
// searches.
//
// Round 1 searches from s=0 only, with t=2 counted as popped from t at
// label 0. It pops 0 (label 0) and 1 (label 1), whose edge to t makes
// μ = 2; then 3 and t are both queued at 2, and the tie rule pops t by its
// lower ID, which stops the round (2 + 0 ≥ μ): 3 pops, path 0→1→2. With
// cap = 2 the repair leaves potentials (−2, −1, 0, 0, 0), the capped ones
// unchanged. Round 2 alternates, forward first: 0 (label 0, reaching 3 at
// 0), then t backward (label 0, reaching 3 at 2, which meets 3's forward
// label 0 for μ = 2, and 4 at 0), 3 forward (reaching t at 2), 4 backward
// (reaching 1 at 4), and t forward at 2, which stops the round
// (2 + 0 ≥ μ): 5 pops, path 0→3→2 through the meeting vertex 3.
func TestAugmentRecordsSettled(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(0, 3, 2, 0)
	g.AddEdge(1, 2, 1, 0)
	g.AddEdge(3, 2, 2, 0)
	g.AddEdge(1, 4, 5, 0)
	g.AddEdge(4, 2, 0, 0)
	r := rec.New(new(obs.ManualClock), 16)
	kf := flow.NewKFlowSolver(graph.NewCSR(g))
	kf.SetRecorder(r)
	f, err := kf.MinCostKFlow(0, 2, 2, shortest.LinCost, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := f.Cost(g); c != 6 {
		t.Fatalf("flow cost %d, want 6", c)
	}
	want := [][4]int64{{1, 2, 3, 0}, {2, 2, 5, 0}}
	evs := r.Events()
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Kind != rec.KindAugment || ev.Args != want[i] {
			t.Fatalf("event %d: %s %v, want augment %v", i, ev.Kind, ev.Args, want[i])
		}
	}
}

// TestAugmentSettledWithinN runs k=3 flows on a layered grid under three
// weightings and checks every round popped at least s and t and at most
// the n vertices there are.
func TestAugmentSettledWithinN(t *testing.T) {
	ins := gen.LayeredGrid(7, 20, 50, gen.DefaultWeights())
	n := int64(ins.G.NumNodes())
	r := rec.New(new(obs.ManualClock), 64)
	kf := flow.NewKFlowSolver(graph.NewCSR(ins.G))
	kf.SetRecorder(r)
	for _, lw := range []shortest.LinWeight{shortest.LinCost, shortest.LinDelay, shortest.LinCombine(1, 1)} {
		if _, err := kf.MinCostKFlow(ins.S, ins.T, 3, lw, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	evs := r.Events()
	if len(evs) != 9 {
		t.Fatalf("%d augment events, want 9", len(evs))
	}
	for i, ev := range evs {
		if settled := ev.Args[2]; settled < 2 || settled > n {
			t.Fatalf("event %d: %d vertices settled, want 2..%d", i, settled, n)
		}
	}
}
