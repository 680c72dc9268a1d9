package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// ExampleSolve demonstrates the headline API: two disjoint paths under a
// total delay budget, with the certified cost factor.
func ExampleSolve() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // cheap, slow
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1) // expensive, fast
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5) // direct

	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 10}
	res, err := core.Solve(ins, core.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cost=%d delay=%d (bound %d)\n", res.Cost, res.Delay, ins.Bound)
	fmt.Printf("within 2x of optimum: %v\n", res.Cost <= 2*res.LowerBound*2/2 && res.Cost <= 2*13)
	// Output:
	// cost=13 delay=7 (bound 10)
	// within 2x of optimum: true
}

// ExampleCheckFeasible shows the feasibility certificate an operator
// inspects before committing to an SLA.
func ExampleCheckFeasible() {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 4)
	g.AddEdge(1, 2, 1, 4)
	g.AddEdge(0, 2, 9, 1)

	ins := graph.Instance{G: g, S: 0, T: 2, K: 2, Bound: 8}
	feas, _ := core.CheckFeasible(ins)
	fmt.Printf("max disjoint paths: %d\n", feas.MaxDisjoint)
	fmt.Printf("minimal total delay: %d\n", feas.MinDelay)
	fmt.Printf("k=2 within bound 8: %v\n", feas.OK)
	// Output:
	// max disjoint paths: 2
	// minimal total delay: 9
	// k=2 within bound 8: false
}
