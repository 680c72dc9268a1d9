package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// obsInstance builds the deterministic small instance the metric tests
// share. Must live in an external test package: gen imports core.
func obsInstance(t *testing.T) graph.Instance {
	t.Helper()
	ins := gen.ER(3, 24, 0.2, gen.DefaultWeights())
	ins.K = 2
	bounded, ok := gen.WithBound(ins, 1.15)
	if !ok {
		t.Fatal("obs test instance infeasible")
	}
	return bounded
}

// TestSolveMetricsMatchStats drives Solve with a live registry and checks
// the recorded counters against the returned Stats — the same consistency
// the krspd integration test asserts over HTTP.
func TestSolveMetricsMatchStats(t *testing.T) {
	reg := obs.New(&obs.ManualClock{})
	ins := obsInstance(t)
	res, err := core.Solve(ins, core.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sm := reg.SolverMetrics()
	if got := sm.Solves.Value(); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
	if got := sm.Cancellations.Value(); got != int64(res.Stats.Iterations) {
		t.Fatalf("cancellations = %d, want %d", got, res.Stats.Iterations)
	}
	for i, c := range res.Stats.CyclesByType {
		if got := sm.Cycles[i].Value(); got != int64(c) {
			t.Fatalf("cycles[%d] = %d, want %d", i, got, c)
		}
	}
	if got := sm.CRefEscalations.Value(); got != int64(res.Stats.CRefEscalations) {
		t.Fatalf("cref escalations = %d, want %d", got, res.Stats.CRefEscalations)
	}
	if got := sm.LambdaIterations.Count(); got != 1 {
		t.Fatalf("lambda-iterations observations = %d, want 1", got)
	}
	// Phase spans: phase1, decompose and total fire on every solve; cancel
	// fires unless the exact shortcut skipped the loop.
	for _, p := range []obs.Phase{obs.PhasePhase1, obs.PhaseDecompose, obs.PhaseTotal} {
		if reg.PhaseHistogram(p).Count() == 0 {
			t.Fatalf("phase %v never observed", p)
		}
	}
	// Flow calls happen inside phase 1 on every instance.
	if reg.FlowMetrics().Calls.Value() == 0 {
		t.Fatal("no flow calls recorded")
	}
	// A second solve on the same registry accumulates.
	if _, err := core.Solve(ins, core.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := sm.Solves.Value(); got != 2 {
		t.Fatalf("solves after second run = %d, want 2", got)
	}
}

// TestSolveScaledMetricsSingleCount proves the scaled wrapper counts as ONE
// solve even though it runs the pseudo-polynomial solve inside, and that it
// records the scale phase.
func TestSolveScaledMetricsSingleCount(t *testing.T) {
	reg := obs.New(&obs.ManualClock{})
	ins := obsInstance(t)
	if _, err := core.SolveScaledCtx(context.Background(), ins, 0.5, 0.5, core.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.SolverMetrics().Solves.Value(); got != 1 {
		t.Fatalf("solves = %d, want 1 (scaled inner run must not double-count)", got)
	}
	if reg.PhaseHistogram(obs.PhaseScale).Count() == 0 {
		t.Fatal("scale phase never observed")
	}
}

// TestSolveErrorCounted: infeasible instances count as solve + error.
func TestSolveErrorCounted(t *testing.T) {
	reg := obs.New(nil)
	ins := obsInstance(t)
	tight := ins
	tight.Bound = 0
	if _, err := core.Solve(tight, core.Options{Metrics: reg}); err == nil {
		t.Fatal("expected infeasibility error")
	}
	sm := reg.SolverMetrics()
	if sm.Solves.Value() != 1 || sm.Errors.Value() != 1 {
		t.Fatalf("solves/errors = %d/%d, want 1/1", sm.Solves.Value(), sm.Errors.Value())
	}
}

// TestSolveNilMetrics pins the no-op sink contract at the core layer: a
// nil registry must not change results (and must not crash anywhere down
// the stack).
func TestSolveNilMetrics(t *testing.T) {
	ins := obsInstance(t)
	with, err := core.Solve(ins, core.Options{Metrics: obs.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	without, err := core.Solve(ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost != without.Cost || with.Delay != without.Delay {
		t.Fatalf("metrics changed the result: (%d,%d) vs (%d,%d)",
			with.Cost, with.Delay, without.Cost, without.Delay)
	}
}
