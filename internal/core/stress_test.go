package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStressRandomTopologies hammers Solve across every generator at
// moderate sizes, asserting only the hard contracts: valid disjoint paths,
// delay bound respected, cost certified against the LP lower bound (≤ 2×
// whenever the cap was respected). Skipped under -short.
func TestStressRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(2026))
	mks := []func(seed int64) graph.Instance{
		func(s int64) graph.Instance { return gen.ER(s, 18+int(s%20), 0.2, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Grid(s, 4+int(s%3), 5, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Layered(s, 4, 4, 0.5, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Geometric(s, 20, 0.35, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.ISP(s, 8, 2, gen.DefaultWeights()) },
	}
	solved := 0
	for round := 0; round < 60; round++ {
		mk := mks[round%len(mks)]
		ins := mk(int64(round))
		ins.K = 1 + r.Intn(3)
		slack := 1.05 + r.Float64()*1.5
		bounded, ok := gen.WithBound(ins, slack)
		if !ok {
			continue
		}
		res, err := core.Solve(bounded, core.Options{})
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, bounded.Name, err)
		}
		if err := res.Solution.Validate(bounded); err != nil {
			t.Fatalf("round %d (%s): %v", round, bounded.Name, err)
		}
		if res.Delay > bounded.Bound {
			t.Fatalf("round %d (%s): delay %d > %d", round, bounded.Name, res.Delay, bounded.Bound)
		}
		if !res.Stats.RelaxedCap && res.Cost > 2*res.LowerBound {
			t.Fatalf("round %d (%s): cost %d > 2·LB %d", round, bounded.Name, res.Cost, res.LowerBound)
		}
		solved++
	}
	if solved < 30 {
		t.Fatalf("only %d/60 rounds produced feasible instances", solved)
	}
}
