package core

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bicameral"
	"repro/internal/exact"
	"repro/internal/graph"
)

// tradeoff: two disjoint routes needed; cheap/slow vs pricey/fast plus a
// middle direct edge.
func tradeoff(bound int64) graph.Instance {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // e0 cheap slow
	g.AddEdge(1, 3, 1, 10) // e1
	g.AddEdge(0, 2, 5, 1)  // e2 pricey fast
	g.AddEdge(2, 3, 5, 1)  // e3
	g.AddEdge(0, 3, 3, 5)  // e4 direct middle
	return graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: bound}
}

func randInstance(r *rand.Rand, n, deg int, maxC, maxD int64, k int) graph.Instance {
	g := graph.New(n)
	for i := 0; i < deg*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), r.Int63n(maxC+1), r.Int63n(maxD+1))
		}
	}
	return graph.Instance{G: g, S: 0, T: graph.NodeID(n - 1), K: k}
}

func TestCheckFeasible(t *testing.T) {
	ins := tradeoff(25)
	f, err := CheckFeasible(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !f.OK || f.MaxDisjoint != 3 || f.MinDelay != 7 {
		t.Fatalf("feasibility = %+v", f)
	}
	ins.Bound = 6
	f, _ = CheckFeasible(ins)
	if f.OK {
		t.Fatal("bound 6 must be infeasible")
	}
	ins.Bound = 25
	ins.K = 4
	f, _ = CheckFeasible(ins)
	if f.OK || f.MaxDisjoint != 3 {
		t.Fatalf("k=4 must fail: %+v", f)
	}
}

func TestPhase1ExactWhenCheapFits(t *testing.T) {
	ins := tradeoff(30) // cheap+direct: cost 5 delay 25 — min-cost flow fits
	p1, err := Phase1(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Exact {
		t.Fatalf("expected exact, got %+v", p1)
	}
	if p1.Lo.Cost(ins.G) != 5 {
		t.Fatalf("cost %d", p1.Lo.Cost(ins.G))
	}
}

func TestPhase1SandwichAndPotential(t *testing.T) {
	ins := tradeoff(10) // min-cost flow (5,25) violates; optimum is (13,7)
	p1, err := Phase1(ins)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Exact {
		t.Fatal("should not be exact")
	}
	g := ins.G
	if p1.Lo.Delay(g) > 10 || p1.Hi.Delay(g) <= 10 {
		t.Fatalf("sandwich broken: lo %d hi %d", p1.Lo.Delay(g), p1.Hi.Delay(g))
	}
	// C_LP ≤ C_OPT = 13.
	if p1.CLPCeil > 13 || p1.CLPCeil < 1 {
		t.Fatalf("CLPCeil = %d", p1.CLPCeil)
	}
	// Lemma 5: chosen flow has c/C_LP + d/D ≤ 2.
	chosen := p1.ChooseByPotential(g, ins.Bound)
	phi := new(big.Rat).Quo(new(big.Rat).SetInt64(chosen.Cost(g)), p1.CLP)
	phi.Add(phi, big.NewRat(chosen.Delay(g), ins.Bound))
	if phi.Cmp(big.NewRat(2, 1)) > 0 {
		t.Fatalf("potential %v > 2", phi)
	}
}

func TestPhase1Errors(t *testing.T) {
	ins := tradeoff(25)
	ins.K = 4
	if _, err := Phase1(ins); !errors.Is(err, ErrNoKPaths) {
		t.Fatalf("err = %v", err)
	}
	ins.K = 2
	ins.Bound = 3
	if _, err := Phase1(ins); !errors.Is(err, ErrDelayInfeasible) {
		t.Fatalf("err = %v", err)
	}
	ins.Bound = -1
	if _, err := Phase1(ins); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestSolveExactCase(t *testing.T) {
	ins := tradeoff(30)
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Cost != 5 || res.Delay > 30 {
		t.Fatalf("res = %+v", res)
	}
	if err := res.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestSolveCancellationCase(t *testing.T) {
	ins := tradeoff(10)
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 10 {
		t.Fatalf("delay %d > 10", res.Delay)
	}
	// OPT = 13 (pricey pair + direct); 2·OPT = 26.
	if res.Cost > 26 {
		t.Fatalf("cost %d > 2·OPT", res.Cost)
	}
	if err := res.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if res.LowerBound > 13 {
		t.Fatalf("lower bound %d exceeds OPT", res.LowerBound)
	}
}

func TestSolveInfeasible(t *testing.T) {
	ins := tradeoff(3)
	if _, err := Solve(ins, Options{}); !errors.Is(err, ErrDelayInfeasible) {
		t.Fatalf("err = %v", err)
	}
	ins = tradeoff(30)
	ins.K = 4
	if _, err := Solve(ins, Options{}); !errors.Is(err, ErrNoKPaths) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolvePhase1Only(t *testing.T) {
	ins := tradeoff(10)
	res, err := Solve(ins, Options{Phase1Only: true})
	if err != nil {
		t.Fatal(err)
	}
	// Phase1Only returns the potential-minimizing endpoint, which may
	// violate the delay bound (that is its (2,2)-style contract).
	if err := res.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 0 {
		t.Fatal("phase1-only must not cancel cycles")
	}
}

// TestSolveGuarantees is the E1 core property: on random feasible
// instances, Solve's delay obeys the bound and its cost is ≤ 2·OPT
// (cap-respecting runs), with LowerBound ≤ OPT.
func TestSolveGuarantees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstance(r, 4+r.Intn(4), 3, 8, 8, 1+r.Intn(2))
		feas, err := CheckFeasible(ins)
		if err != nil || !feas.OK {
			// Choose a workable bound if possible.
			if err != nil || feas.MaxDisjoint < ins.K {
				return true
			}
			ins.Bound = feas.MinDelay + r.Int63n(10)
		} else {
			ins.Bound = feas.MinDelay + r.Int63n(15)
		}
		res, err := Solve(ins, Options{})
		if err != nil {
			return false // instance is feasible by construction
		}
		if res.Solution.Validate(ins) != nil {
			return false
		}
		if res.Delay > ins.Bound {
			return false
		}
		opt, err := exact.BruteForce(ins, 60)
		if err != nil {
			return false
		}
		if res.LowerBound > opt.Cost {
			return false
		}
		if !res.Stats.RelaxedCap && res.Cost > 2*opt.Cost {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLPEngineAgrees runs the LP-based bicameral engine end to end on
// tiny instances.
func TestSolveLPEngineAgrees(t *testing.T) {
	ins := tradeoff(10)
	res, err := Solve(ins, Options{Engine: bicameral.EngineLP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 10 || res.Cost > 26 {
		t.Fatalf("lp engine res = %+v", res)
	}
}

func TestSolveScaledGuarantees(t *testing.T) {
	for _, eps := range []float64{1.0, 0.5} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			ins := randInstance(r, 4+r.Intn(3), 3, 20, 20, 1+r.Intn(2))
			feas, err := CheckFeasible(ins)
			if err != nil || feas.MaxDisjoint < ins.K {
				return true
			}
			ins.Bound = feas.MinDelay + r.Int63n(20)
			res, err := SolveScaledCtx(context.Background(), ins, eps, eps, Options{})
			if err != nil {
				return false
			}
			if res.Solution.Validate(ins) != nil {
				return false
			}
			// Delay ≤ (1+ε)·D.
			if float64(res.Delay) > (1+eps)*float64(ins.Bound)+1e-9 {
				return false
			}
			opt, err := exact.BruteForce(ins, 60)
			if err != nil {
				return false
			}
			// Cost ≤ (2+ε)·OPT for cap-respecting runs (the 2·OPT proof
			// compares against the scaled optimum; the ε term absorbs the
			// rounding).
			if !res.Stats.RelaxedCap && opt.Cost > 0 &&
				float64(res.Cost) > (2+eps)*float64(opt.Cost)+1e-9 {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
	}
}

func TestSolveScaledRejectsBadEps(t *testing.T) {
	ins := tradeoff(10)
	for _, eps := range [][2]float64{{0, 1}, {1, -2}, {math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)}} {
		if _, err := SolveScaledCtx(context.Background(), ins, eps[0], eps[1], Options{}); err == nil {
			t.Fatalf("eps1=%g eps2=%g accepted", eps[0], eps[1])
		}
	}
}

// TestSolveScaledHugeEps: at ε = 1e300, ε·D/n′ lies far outside int64, and
// the granularity must clamp to its ceiling, where every weight rounds to
// 0. That is the answer of a finite ε whose θ already exceeds every edge
// weight: on tradeoff(10), n′ = 8 and ε = 100 give θ_d = 125 and θ_c ≥ 100
// against weights of at most 10.
func TestSolveScaledHugeEps(t *testing.T) {
	ins := tradeoff(10)
	want, err := SolveScaledCtx(context.Background(), ins, 100, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveScaledCtx(context.Background(), ins, 1e300, 1e300, Options{})
	if err != nil {
		t.Fatal(err)
	}
	samePath := func(a, b graph.Path) bool { return slices.Equal(a.Edges, b.Edges) }
	if got.Cost != want.Cost || got.Delay != want.Delay || !slices.EqualFunc(got.Solution.Paths, want.Solution.Paths, samePath) {
		t.Fatalf("eps=1e300: cost %d delay %d paths %v, want cost %d delay %d paths %v",
			got.Cost, got.Delay, got.Solution.Paths, want.Cost, want.Delay, want.Solution.Paths)
	}
}

func TestSolveScaledExactShortcut(t *testing.T) {
	ins := tradeoff(30)
	res, err := SolveScaledCtx(context.Background(), ins, 0.5, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Cost != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSolveStatsPopulated(t *testing.T) {
	ins := tradeoff(10)
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations == 0 {
		t.Fatal("cancellation loop should have run")
	}
	total := res.Stats.CyclesByType[0] + res.Stats.CyclesByType[1] + res.Stats.CyclesByType[2]
	if !res.Stats.RelaxedCap && total != res.Stats.Iterations {
		t.Fatalf("type counts %v != iterations %d", res.Stats.CyclesByType, res.Stats.Iterations)
	}
	if res.Stats.Phase1.LambdaIterations == 0 {
		t.Fatal("phase1 stats missing")
	}
}

func TestSolveFullSweepOption(t *testing.T) {
	ins := tradeoff(10)
	res, err := Solve(ins, Options{FullSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 10 {
		t.Fatalf("delay %d", res.Delay)
	}
}
