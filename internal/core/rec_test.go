package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// recTradeoff mirrors the internal tradeoff instance: two disjoint routes
// needed, cheap/slow vs pricey/fast plus a middle direct edge. Bound 10 is
// feasible and forces cycle cancellation.
func recTradeoff(bound int64) graph.Instance {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5)
	return graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: bound}
}

// eventCounts tallies a recorded stream by kind.
func eventCounts(evs []rec.Event) map[rec.Kind]int {
	c := make(map[rec.Kind]int)
	for _, ev := range evs {
		c[ev.Kind]++
	}
	return c
}

// TestSolveRecordsTrajectory drives Solve with a live recorder and checks
// the event stream is consistent with the returned Stats: solve-start /
// solve-end bracket the stream, phase starts and ends pair up, and the
// per-iteration event counts match the Stats counters.
func TestSolveRecordsTrajectory(t *testing.T) {
	r := rec.New(new(obs.ManualClock), 1024)
	ins := recTradeoff(10)
	res, err := core.Solve(ins, core.Options{Recorder: r})
	if err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if evs[0].Kind != rec.KindSolveStart {
		t.Fatalf("first event = %s, want solve-start", evs[0].Kind)
	}
	if evs[0].Args != [4]int64{4, 5, 2, 10} {
		t.Fatalf("solve-start args = %v, want [4 5 2 10]", evs[0].Args)
	}
	last := evs[len(evs)-1]
	if last.Kind != rec.KindSolveEnd {
		t.Fatalf("last event = %s, want solve-end", last.Kind)
	}
	if last.Args[0] != res.Cost || last.Args[1] != res.Delay {
		t.Fatalf("solve-end cost/delay = %d/%d, want %d/%d",
			last.Args[0], last.Args[1], res.Cost, res.Delay)
	}
	if last.Args[2] != int64(res.Stats.Iterations) {
		t.Fatalf("solve-end iterations = %d, want %d", last.Args[2], res.Stats.Iterations)
	}

	counts := eventCounts(evs)
	if counts[rec.KindPhaseStart] != counts[rec.KindPhaseEnd] {
		t.Fatalf("phase-start %d != phase-end %d",
			counts[rec.KindPhaseStart], counts[rec.KindPhaseEnd])
	}
	if counts[rec.KindCancelStep] != res.Stats.Iterations {
		t.Fatalf("cancel-step events = %d, want Stats.Iterations %d",
			counts[rec.KindCancelStep], res.Stats.Iterations)
	}
	if counts[rec.KindCRefEscalate] != res.Stats.CRefEscalations {
		t.Fatalf("cref-escalate events = %d, want %d",
			counts[rec.KindCRefEscalate], res.Stats.CRefEscalations)
	}
	if counts[rec.KindLambdaIter] != res.Stats.Phase1.LambdaIterations {
		t.Fatalf("lambda-iter events = %d, want %d",
			counts[rec.KindLambdaIter], res.Stats.Phase1.LambdaIterations)
	}
	if counts[rec.KindDualityGap] != counts[rec.KindLambdaIter] {
		t.Fatalf("duality-gap events = %d, want one per lambda-iter %d",
			counts[rec.KindDualityGap], counts[rec.KindLambdaIter])
	}
	// Every applied cancellation maintains the residual incrementally (no
	// faults armed), so apply events match cancel steps.
	if counts[rec.KindResidualApply] != res.Stats.Iterations {
		t.Fatalf("residual-apply events = %d, want %d",
			counts[rec.KindResidualApply], res.Stats.Iterations)
	}
	if counts[rec.KindAugment] == 0 {
		t.Fatal("no augment events from the flow kernel")
	}
	// Duality-gap events must be non-increasing in gap within a solve
	// (best dual only improves) — the property the convergence table shows.
	prevIter := int64(-1)
	var prevGap int64
	for _, ev := range evs {
		if ev.Kind != rec.KindDualityGap {
			continue
		}
		if prevIter >= 0 && ev.Args[0] > prevIter && ev.Args[3] > prevGap {
			// gap can only shrink when lo improves or best grows; it can
			// stay equal, never grow (lo.Cost is non-increasing, best is
			// non-decreasing) — unless lo switched endpoints. Tolerate
			// equality, flag growth.
			t.Fatalf("duality gap grew: iter %d gap %d -> iter %d gap %d",
				prevIter, prevGap, ev.Args[0], ev.Args[3])
		}
		prevIter, prevGap = ev.Args[0], ev.Args[3]
	}
}

// resultFlags is the solve-end flags word a Result should close its stream
// with.
func resultFlags(res core.Result) int64 {
	var flags int64
	if res.Stats.Degraded {
		flags |= rec.FlagDegraded
	}
	if res.Exact {
		flags |= rec.FlagExact
	}
	if res.Stats.RelaxedCap {
		flags |= rec.FlagRelaxedCap
	}
	if res.Stats.FellBackToPhase1 {
		flags |= rec.FlagFellBack
	}
	return flags
}

// TestScaledSolveRecordsItsOwnAnswer: a scaled solve's stream is one
// solve-start/solve-end pair in original weights. The inner solve on the
// rounded instance records neither, and the solve-end, last in the stream,
// carries the returned Result. The instance's weights make the rounding
// granularity ε·D/(k·n) well above 1, so the inner answer's scaled cost
// and delay differ from the Result's.
func TestScaledSolveRecordsItsOwnAnswer(t *testing.T) {
	const eps = 0.5
	ins := gen.ER(7, 40, 0.2, gen.Weights{MaxCost: 5000, MaxDelay: 5000, Correlation: -0.8})
	ins.K = 2
	bounded, ok := gen.WithBound(ins, 1.1)
	if !ok {
		t.Fatal("scaled test instance infeasible")
	}
	if theta := eps * float64(bounded.Bound) / float64(bounded.K*bounded.G.NumNodes()); theta < 2 {
		t.Fatalf("delay granularity %.2f: the instance no longer rounds", theta)
	}
	r := rec.New(nil, 1<<16)
	res, err := core.SolveScaledCtx(context.Background(), bounded, eps, eps, core.Options{Recorder: r})
	if err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	counts := eventCounts(evs)
	if counts[rec.KindSolveStart] != 1 || counts[rec.KindSolveEnd] != 1 {
		t.Fatalf("solve-start %d, solve-end %d events, want one each",
			counts[rec.KindSolveStart], counts[rec.KindSolveEnd])
	}
	if evs[0].Kind != rec.KindSolveStart {
		t.Fatalf("first event = %s, want solve-start", evs[0].Kind)
	}
	last := evs[len(evs)-1]
	want := [4]int64{res.Cost, res.Delay, int64(res.Stats.Iterations), resultFlags(res)}
	if last.Kind != rec.KindSolveEnd || last.Args != want {
		t.Fatalf("last event = %s %v, want solve-end %v", last.Kind, last.Args, want)
	}
}

// TestDegradedSolveRecordsDecision arms the cancel fault point so the solve
// degrades deterministically, and checks the black-box stream carries the
// fault hit and the degradation decision — the exact events krspd's
// black-box dump exists to preserve.
func TestDegradedSolveRecordsDecision(t *testing.T) {
	r := rec.New(new(obs.ManualClock), 1024)
	faults := fault.New(1)
	faults.Arm(fault.PointCancel, 1.0)
	ins := recTradeoff(10)
	// The armed cancel point trips the real canceller, so the solve needs a
	// cancellable context (Background wires no cancellation machinery).
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	res, err := core.SolveCtx(ctx, ins, core.Options{Recorder: r, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatal("armed cancel fault should degrade the solve")
	}
	counts := eventCounts(r.Events())
	if counts[rec.KindFaultHit] == 0 {
		t.Fatal("no fault-hit event recorded")
	}
	if counts[rec.KindDegraded] != 1 {
		t.Fatalf("degraded events = %d, want 1", counts[rec.KindDegraded])
	}
	evs := r.Events()
	last := evs[len(evs)-1]
	if last.Kind != rec.KindSolveEnd || last.Args[3]&rec.FlagDegraded == 0 {
		t.Fatalf("last event = %s flags=%d, want solve-end with degraded flag",
			last.Kind, last.Args[3])
	}
}

// TestRecorderNeverChangesResults solves with and without a recorder and
// requires bit-identical results — recording is observation only.
func TestRecorderNeverChangesResults(t *testing.T) {
	ins := recTradeoff(10)
	plain, err := core.Solve(ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rec.New(new(obs.ManualClock), 64) // tiny ring: wraps during the solve
	recorded, err := core.Solve(ins, core.Options{Recorder: r})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != recorded.Cost || plain.Delay != recorded.Delay {
		t.Fatalf("recorder changed the result: %d/%d vs %d/%d",
			plain.Cost, plain.Delay, recorded.Cost, recorded.Delay)
	}
	if plain.Stats.Iterations != recorded.Stats.Iterations {
		t.Fatalf("recorder changed iterations: %d vs %d",
			plain.Stats.Iterations, recorded.Stats.Iterations)
	}
}
