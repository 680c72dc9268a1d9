package rsp_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rsp"
)

// ExampleExactDP solves the classic single restricted shortest path: the
// cheapest route whose delay fits the budget.
func ExampleExactDP() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // cheap but slow
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 10, 1) // fast but pricey
	g.AddEdge(2, 3, 10, 1)
	g.AddEdge(0, 3, 5, 8) // middle ground

	for _, bound := range []int64{25, 10, 2} {
		res, err := rsp.ExactDP(g, 0, 3, bound)
		if err != nil {
			fmt.Printf("D=%d: infeasible\n", bound)
			continue
		}
		fmt.Printf("D=%d: cost %d, delay %d\n", bound, res.Cost, res.Delay)
	}
	// Output:
	// D=25: cost 2, delay 20
	// D=10: cost 5, delay 8
	// D=2: cost 20, delay 2
}
