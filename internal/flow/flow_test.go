package flow

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// twoDisjoint builds a graph with exactly two edge-disjoint 0→3 paths.
func twoDisjoint() *graph.Digraph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 2) // e0
	g.AddEdge(0, 2, 2, 1) // e1
	g.AddEdge(1, 3, 3, 4) // e2
	g.AddEdge(2, 3, 4, 3) // e3
	g.AddEdge(1, 2, 5, 5) // e4
	return g
}

func TestMaxDisjointPathsSimple(t *testing.T) {
	g := twoDisjoint()
	if got := MaxDisjointPaths(g, 0, 3); got != 2 {
		t.Fatalf("maxflow = %d, want 2", got)
	}
	if got := MaxDisjointPaths(g, 0, 0); got != 0 {
		t.Fatalf("s==t maxflow = %d", got)
	}
	if got := MaxDisjointPaths(g, 3, 0); got != 0 {
		t.Fatalf("reverse maxflow = %d", got)
	}
}

func TestMaxDisjointPathsNeedsBackEdge(t *testing.T) {
	// Classic instance where greedy path choice must be undone via a
	// residual back edge.
	g := graph.New(6)
	g.AddEdge(0, 1, 0, 0) // s→a
	g.AddEdge(0, 2, 0, 0) // s→b
	g.AddEdge(1, 3, 0, 0) // a→c
	g.AddEdge(2, 3, 0, 0) // b→c
	g.AddEdge(3, 4, 0, 0) // c→d  (shared bottleneck candidate)
	g.AddEdge(1, 4, 0, 0) // a→d
	g.AddEdge(4, 5, 0, 0) // d→t
	g.AddEdge(3, 5, 0, 0) // c→t
	if got := MaxDisjointPaths(g, 0, 5); got != 2 {
		t.Fatalf("maxflow = %d, want 2", got)
	}
}

func TestMaxFlowMatchesBruteMenger(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1, 1)
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		got := MaxDisjointPaths(g, s, tt)
		// Verify against successive BFS augmentation on a residual copy
		// (Ford–Fulkerson with unit capacities, independent implementation).
		want := bruteMaxFlow(g, s, tt)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteMaxFlow: BFS augmenting paths over explicit residual adjacency.
func bruteMaxFlow(g *graph.Digraph, s, t graph.NodeID) int {
	used := make([]bool, g.NumEdges())
	total := 0
	for {
		type hop struct {
			edge graph.EdgeID
			fwd  bool
		}
		parent := make(map[graph.NodeID]hop)
		visited := map[graph.NodeID]bool{s: true}
		queue := []graph.NodeID{s}
		for len(queue) > 0 && !visited[t] {
			u := queue[0]
			queue = queue[1:]
			for _, id := range g.Out(u) {
				e := g.Edge(id)
				if !used[id] && !visited[e.To] {
					visited[e.To] = true
					parent[e.To] = hop{id, true}
					queue = append(queue, e.To)
				}
			}
			for _, id := range g.In(u) {
				e := g.Edge(id)
				if used[id] && !visited[e.From] {
					visited[e.From] = true
					parent[e.From] = hop{id, false}
					queue = append(queue, e.From)
				}
			}
		}
		if !visited[t] {
			return total
		}
		v := t
		for v != s {
			h := parent[v]
			if h.fwd {
				used[h.edge] = true
				v = g.Edge(h.edge).From
			} else {
				used[h.edge] = false
				v = g.Edge(h.edge).To
			}
		}
		total++
	}
}

func TestMinCostKFlowOptimal(t *testing.T) {
	g := twoDisjoint()
	f, err := MinCostKFlow(g, 0, 3, 2, shortest.LinCost)
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint paths must use e0..e3; total cost 10.
	if f.Cost(g) != 10 {
		t.Fatalf("cost = %d, want 10", f.Cost(g))
	}
	if f.Edges.Len() != 4 || f.Edges.Has(4) {
		t.Fatalf("edges = %v", f.Edges.IDs())
	}
}

func TestMinCostKFlowRerouting(t *testing.T) {
	// Cheapest single path uses the bottleneck; 2-flow must reroute it.
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 0)  // e0
	g.AddEdge(1, 3, 1, 0)  // e1
	g.AddEdge(0, 2, 10, 0) // e2
	g.AddEdge(2, 3, 10, 0) // e3
	g.AddEdge(0, 3, 5, 0)  // e4 direct
	f, err := MinCostKFlow(g, 0, 3, 2, shortest.LinCost)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cost(g) != 7 { // e0+e1 (2) + e4 (5)
		t.Fatalf("cost = %d, want 7", f.Cost(g))
	}
}

func TestMinCostKFlowInfeasible(t *testing.T) {
	g := twoDisjoint()
	_, err := MinCostKFlow(g, 0, 3, 3, shortest.LinCost)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// Unreachable sink.
	g2 := graph.New(3)
	g2.AddEdge(0, 1, 1, 1)
	_, err = MinCostKFlow(g2, 0, 2, 1, shortest.LinCost)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinCostKFlowZeroK(t *testing.T) {
	g := twoDisjoint()
	f, err := MinCostKFlow(g, 0, 3, 0, shortest.LinCost)
	if err != nil || f.Edges.Len() != 0 {
		t.Fatalf("zero flow: %v %v", f.Edges.IDs(), err)
	}
}

func TestMinCostKFlowMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(20)), int64(r.Intn(20)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		k := 1 + r.Intn(2)
		got, err := MinCostKFlow(g, s, tt, k, shortest.LinCost)
		want, feasible := bruteMinCostK(g, s, tt, k)
		if err != nil {
			return !feasible
		}
		if !feasible {
			return false
		}
		// Flow must decompose into k disjoint paths with the optimal cost.
		paths, _, derr := Decompose(g, got.Edges, s, tt, k)
		if derr != nil || len(paths) != k {
			return false
		}
		return got.Cost(g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteMinCostK enumerates all sets of k edge-disjoint paths (tiny graphs).
func bruteMinCostK(g *graph.Digraph, s, t graph.NodeID, k int) (int64, bool) {
	paths := enumeratePaths(g, s, t, graph.NewEdgeSet())
	var best int64
	found := false
	var rec func(i int, used graph.EdgeSet, cost int64, left int)
	rec = func(i int, used graph.EdgeSet, cost int64, left int) {
		if left == 0 {
			if !found || cost < best {
				best, found = cost, true
			}
			return
		}
		for j := i; j < len(paths); j++ {
			p := paths[j]
			disjoint := true
			for _, id := range p.Edges {
				if used.Has(id) {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			u2 := used.Clone()
			for _, id := range p.Edges {
				u2.Add(id)
			}
			rec(j+1, u2, cost+p.Cost(g), left-1)
		}
	}
	rec(0, graph.NewEdgeSet(), 0, k)
	return best, found
}

// enumeratePaths lists all edge-simple s→t paths (exponential; tiny only).
func enumeratePaths(g *graph.Digraph, s, t graph.NodeID, used graph.EdgeSet) []graph.Path {
	var out []graph.Path
	var cur []graph.EdgeID
	onPath := map[graph.NodeID]bool{s: true}
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if v == t {
			out = append(out, graph.Path{Edges: append([]graph.EdgeID(nil), cur...)})
			return
		}
		for _, id := range g.Out(v) {
			e := g.Edge(id)
			if used.Has(id) || onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			cur = append(cur, id)
			dfs(e.To)
			cur = cur[:len(cur)-1]
			delete(onPath, e.To)
		}
	}
	dfs(s)
	return out
}

func TestDecomposeSimple(t *testing.T) {
	g := twoDisjoint()
	set := graph.NewEdgeSet(0, 1, 2, 3)
	paths, cycles, err := Decompose(g, set, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || len(cycles) != 0 {
		t.Fatalf("got %d paths %d cycles", len(paths), len(cycles))
	}
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 1 << 30}
	if err := (graph.Solution{Paths: paths}).Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeWithCycle(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1, 1) // e0 path
	g.AddEdge(1, 4, 1, 1) // e1 path
	g.AddEdge(2, 3, 1, 1) // e2 cycle
	g.AddEdge(3, 2, 1, 1) // e3 cycle
	set := graph.NewEdgeSet(0, 1, 2, 3)
	paths, cycles, err := Decompose(g, set, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(cycles) != 1 {
		t.Fatalf("got %d paths %d cycles", len(paths), len(cycles))
	}
	if err := cycles[0].Validate(g, true); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposePathThroughCycleShortcut(t *testing.T) {
	// Flow where the walk from s can wander into a cycle before reaching t;
	// decomposition must shortcut it into a simple path + cycle.
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 1) // e0
	g.AddEdge(1, 2, 1, 1) // e1 (cycle)
	g.AddEdge(2, 1, 1, 1) // e2 (cycle)
	g.AddEdge(1, 3, 1, 1) // e3
	set := graph.NewEdgeSet(0, 1, 2, 3)
	paths, cycles, err := Decompose(g, set, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	if err := paths[0].Validate(g, 0, 3, true); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 1 || cycles[0].Len() != 2 {
		t.Fatalf("cycles = %+v", cycles)
	}
}

func TestDecomposeRejectsUnbalanced(t *testing.T) {
	g := twoDisjoint()
	if _, _, err := Decompose(g, graph.NewEdgeSet(0), 0, 3, 1); err == nil {
		t.Fatal("unbalanced set accepted")
	}
	if _, _, err := Decompose(g, graph.NewEdgeSet(0, 1, 2, 3), 0, 3, 1); err == nil {
		t.Fatal("wrong k accepted")
	}
}

func TestSplitClosedWalkNested(t *testing.T) {
	// Walk 0→1→2→1→0 contains nested cycle 1→2→1.
	g := graph.New(3)
	e0 := g.AddEdge(0, 1, 1, 1)
	e1 := g.AddEdge(1, 2, 1, 1)
	e2 := g.AddEdge(2, 1, 1, 1)
	e3 := g.AddEdge(1, 0, 1, 1)
	cycles := SplitClosedWalk(g, []graph.EdgeID{e0, e1, e2, e3})
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles", len(cycles))
	}
	for _, c := range cycles {
		if err := c.Validate(g, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSuurballeMinSum(t *testing.T) {
	g := twoDisjoint()
	sol, err := SuurballeMinSum(g, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 1 << 30}
	if err := sol.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if sol.Cost(g) != 10 {
		t.Fatalf("cost %d", sol.Cost(g))
	}
}

func TestMinCostKFlowDelayWeight(t *testing.T) {
	g := twoDisjoint()
	f, err := MinCostKFlow(g, 0, 3, 2, shortest.LinDelay)
	if err != nil {
		t.Fatal(err)
	}
	if f.Delay(g) != 10 {
		t.Fatalf("delay = %d", f.Delay(g))
	}
	if f.Weight(g, shortest.LinDelay) != 10 {
		t.Fatal("Weight() mismatch")
	}
}
