package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func tradeoff(bound int64) graph.Instance {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5)
	return graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: bound}
}

func TestMinSum(t *testing.T) {
	ins := tradeoff(10)
	r, err := MinSum(ins)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 5 { // cheapest 2 disjoint: {e0,e1} (2) + {e4} (3)
		t.Fatalf("cost = %d", r.Cost)
	}
	if r.Feasible {
		t.Fatal("min-sum should violate the tight bound here")
	}
	if err := r.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestMinDelay(t *testing.T) {
	ins := tradeoff(10)
	r, err := MinDelay(ins)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay != 7 { // pricey pair (2) + direct (5)
		t.Fatalf("delay = %d", r.Delay)
	}
	if !r.Feasible {
		t.Fatal("min-delay must be feasible when the instance is")
	}
}

func TestGreedySequential(t *testing.T) {
	ins := tradeoff(12)
	r, err := GreedySequential(ins)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyCanFail(t *testing.T) {
	// A trap: the cheap first path blocks the only disjoint pair.
	g := graph.New(4)
	g.AddEdge(0, 1, 0, 1) // s→a cheap fast: greedy takes s→a→t
	g.AddEdge(1, 3, 0, 1)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 1, 5, 1) // second path must go s→b→a→t — via a!
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 100}
	if _, err := GreedySequential(ins); err == nil {
		t.Fatal("greedy should fail on the trap instance")
	}
}

func TestLagrangianSweep(t *testing.T) {
	ins := tradeoff(10)
	r, err := LagrangianSweep(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("sweep returned infeasible result")
	}
	if err := r.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestPhase1OnlyAndKRSP(t *testing.T) {
	ins := tradeoff(10)
	p1, err := Phase1Only(ins)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
	kr, err := KRSP(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !kr.Feasible {
		t.Fatal("krsp must meet the bound on feasible instances")
	}
	if kr.Cost > 26 { // 2·OPT with OPT=13
		t.Fatalf("krsp cost %d", kr.Cost)
	}
}

func TestAllRegistry(t *testing.T) {
	ins := tradeoff(10)
	entries := All()
	if len(entries) != 7 {
		t.Fatalf("registry size %d", len(entries))
	}
	for _, e := range entries {
		r, err := e.Run(ins)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if err := r.Solution.Validate(ins); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}

// TestBaselineOrdering: on random feasible instances, krsp's cost is never
// worse than mindelay's (both feasible), and minsum's cost lower-bounds
// everything.
func TestBaselineOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := gen.ER(seed, 8+r.Intn(6), 0.25, gen.DefaultWeights())
		bounded, ok := gen.WithBound(ins, 1.3+r.Float64())
		if !ok {
			return true
		}
		kr, err := KRSP(bounded)
		if err != nil {
			return false
		}
		ms, err := MinSum(bounded)
		if err != nil {
			return false
		}
		md, err := MinDelay(bounded)
		if err != nil {
			return false
		}
		if !kr.Feasible || !md.Feasible {
			return false
		}
		if ms.Cost > kr.Cost {
			return false // min-sum is a lower bound on any solution's cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestYenGreedy(t *testing.T) {
	ins := tradeoff(12)
	r, err := YenGreedy(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("yen result infeasible: %+v", r)
	}
	if err := r.Solution.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestYenGreedyFailsWithoutEnoughPaths(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	ins := graph.Instance{G: g, S: 0, T: 2, K: 2, Bound: 100}
	if _, err := YenGreedy(ins); err == nil {
		t.Fatal("single-route graph accepted")
	}
}
