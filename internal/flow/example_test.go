package flow_test

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// ExampleMinCostKFlow computes the cheapest pair of edge-disjoint paths
// and decomposes the flow back into paths.
func ExampleMinCostKFlow() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 0)
	g.AddEdge(0, 2, 10, 0)
	g.AddEdge(2, 3, 10, 0)
	g.AddEdge(0, 3, 5, 0)

	f, err := flow.MinCostKFlow(g, 0, 3, 2, shortest.LinCost)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	paths, _, _ := flow.Decompose(g, f.Edges, 0, 3, 2)
	fmt.Printf("total cost %d over %d paths\n", f.Cost(g), len(paths))
	for _, p := range paths {
		fmt.Println(" ", p.Format(g))
	}
	// Output:
	// total cost 7 over 2 paths
	//   0->3
	//   0->1->3
}

// ExampleMaxDisjointPaths answers Menger's question: how many edge-disjoint
// routes exist at all?
func ExampleMaxDisjointPaths() {
	g := graph.New(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	g.AddEdge(0, 3, 0, 0)
	fmt.Println(flow.MaxDisjointPaths(g, 0, 3))
	// Output:
	// 3
}
