package core

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// twoRoutes is a 6-node instance with one s→t route 0→1→2→5 whose three
// edges weigh (costA, delayA) each beside a disjoint route 0→3→4→5 whose
// edges weigh (costB, delayB) each.
func twoRoutes(costA, delayA, costB, delayB, bound int64) graph.Instance {
	g := graph.New(6)
	g.AddEdge(0, 1, costA, delayA)
	g.AddEdge(1, 2, costA, delayA)
	g.AddEdge(2, 5, costA, delayA)
	g.AddEdge(0, 3, costB, delayB)
	g.AddEdge(3, 4, costB, delayB)
	g.AddEdge(4, 5, costB, delayB)
	return graph.Instance{G: g, S: 0, T: 5, K: 1, Bound: bound}
}

// TestPhase1OnlyZeroBound: a zero delay bound passes Validate, and the
// potential selection must not divide by it. Every bound-violating flow has
// infinite potential, so the delay-0 endpoint Lo is the answer.
func TestPhase1OnlyZeroBound(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 1, 5, 0)
	ins := graph.Instance{G: g, S: 0, T: 1, K: 1, Bound: 0}
	res, err := Solve(ins, Options{Phase1Only: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 5 || res.Delay != 0 {
		t.Fatalf("cost %d delay %d, want 5 and 0", res.Cost, res.Delay)
	}
}

// TestWeightsTooLargeIsAnError: two valid instances with weights near
// graph.MaxWeight. In (a) phase 1's first λ probe weighs 3·2^30 per unit
// of cost and of delay, so q·cost + p·delay reaches 9·2^60 on a route and
// wraps int64; phase 1 must refuse it in both modes. In (b) phase 1 is
// exact, but the cancellation loop's first Find would need |Δ| = 2 where
// n = 6 and 2^29-sized weights leave no room, so the full solve refuses it
// and a phase-1-only solve still succeeds.
func TestWeightsTooLargeIsAnError(t *testing.T) {
	const a, b = int64(1) << 30, int64(1) << 29
	insA := twoRoutes(0, a, a, 0, 1)
	insB := twoRoutes(0, b+1, 1, b, 3*b+1)
	for _, ins := range []graph.Instance{insA, insB} {
		if err := ins.Validate(); err != nil {
			t.Fatalf("test instance must be valid: %v", err)
		}
	}
	for _, phase1Only := range []bool{false, true} {
		_, err := Solve(insA, Options{Phase1Only: phase1Only})
		if !errors.Is(err, ErrWeightsTooLarge) {
			t.Fatalf("(a) phase1Only=%v: err %v, want ErrWeightsTooLarge", phase1Only, err)
		}
	}
	if _, err := Solve(insB, Options{}); !errors.Is(err, ErrWeightsTooLarge) {
		t.Fatalf("(b): err %v, want ErrWeightsTooLarge", err)
	}
	res, err := Solve(insB, Options{Phase1Only: true})
	if err != nil {
		t.Fatalf("(b) phase1Only: %v", err)
	}
	if res.LowerBound != 2 {
		t.Fatalf("(b) phase1Only: lower bound %d, want ⌈C_LP⌉ = 2", res.LowerBound)
	}
	if _, err := Phase1(insA); !errors.Is(err, ErrWeightsTooLarge) {
		t.Fatalf("(a) Phase1: err %v, want ErrWeightsTooLarge", err)
	}
}

// TestCheckProbeBoundary pins the probe limit: q·Σcost + p·Σdelay = 2^60
// passes, one more fails, and products past 2^64 are caught rather than
// wrapped.
func TestCheckProbeBoundary(t *testing.T) {
	for _, tc := range []struct {
		sumC, sumD, q, p int64
		ok               bool
	}{
		{1 << 30, 1 << 30, 1 << 29, 1 << 29, true},
		{1 << 30, 1, 1 << 30, 0, true},
		{1 << 30, 1, 1 << 30, 1, false},
		{1 << 62, 0, 1 << 62, 0, false},
		{0, 1 << 40, 1 << 62, 1 << 20, true},
	} {
		err := checkProbe(tc.sumC, tc.sumD, shortest.LinCombine(tc.q, tc.p))
		if (err == nil) != tc.ok {
			t.Fatalf("checkProbe(Σc %d, Σd %d, q %d, p %d) = %v, want ok=%v", tc.sumC, tc.sumD, tc.q, tc.p, err, tc.ok)
		}
	}
}
