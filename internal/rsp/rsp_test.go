package rsp

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// mk builds the canonical tradeoff graph: a cheap slow path and an
// expensive fast path.
func mk() *graph.Digraph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // cheap/slow
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 10, 1) // expensive/fast
	g.AddEdge(2, 3, 10, 1)
	g.AddEdge(0, 3, 5, 8) // middle
	return g
}

func TestExactDPTradeoff(t *testing.T) {
	g := mk()
	cases := []struct {
		bound    int64
		wantCost int64
	}{
		{25, 2}, // cheap/slow fits
		{10, 5}, // only middle and fast fit; middle cheaper
		{7, 20}, // only fast fits
		{2, 20}, // fast exactly
	}
	for _, tc := range cases {
		res, err := ExactDP(g, 0, 3, tc.bound)
		if err != nil {
			t.Fatalf("bound %d: %v", tc.bound, err)
		}
		if res.Cost != tc.wantCost {
			t.Fatalf("bound %d: cost %d want %d", tc.bound, res.Cost, tc.wantCost)
		}
		if res.Delay > tc.bound {
			t.Fatalf("bound %d: delay %d violates bound", tc.bound, res.Delay)
		}
		if err := res.Path.Validate(g, 0, 3, true); err != nil {
			t.Fatal(err)
		}
		if res.Path.Cost(g) != res.Cost || res.Path.Delay(g) != res.Delay {
			t.Fatal("metrics inconsistent with path")
		}
	}
}

// TestExactDPRejectsHugeBound checks that a bound whose layered graph
// exceeds MaxLayeredStates is an error, not an allocation: with bound 2^40
// on 4 nodes the layered arrays would need 35 TB, which the runtime cannot
// allocate and cannot recover from. The product overflowing int64 and a
// query one layer over the cap are rejected the same way.
func TestExactDPRejectsHugeBound(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	for _, bound := range []int64{1 << 40, math.MaxInt64, MaxLayeredStates / 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ExactDP(g, 0, 3, bound)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("bound %d: err = %v, want ErrTooLarge", bound, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("bound %d: rejected query allocated %d bytes", bound, alloc)
		}
	}
}

func TestExactDPInfeasible(t *testing.T) {
	g := mk()
	if _, err := ExactDP(g, 0, 3, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ExactDP(g, 0, 3, -1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("negative bound err = %v", err)
	}
	// Disconnected sink.
	g2 := graph.New(2)
	if _, err := ExactDP(g2, 0, 1, 100); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactDPZeroDelayEdges(t *testing.T) {
	// Zero-delay edges create same-layer relaxations; the layered Dijkstra
	// must still find the optimum.
	g := graph.New(4)
	g.AddEdge(0, 1, 5, 0)
	g.AddEdge(1, 2, 5, 0)
	g.AddEdge(2, 3, 5, 0)
	g.AddEdge(0, 3, 100, 0)
	res, err := ExactDP(g, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 15 || res.Delay != 0 {
		t.Fatalf("got %d/%d", res.Cost, res.Delay)
	}
}

// bruteRSP enumerates all simple paths (tiny graphs).
func bruteRSP(g *graph.Digraph, s, t graph.NodeID, bound int64) (int64, bool) {
	best := int64(-1)
	var cur []graph.EdgeID
	on := map[graph.NodeID]bool{s: true}
	var dfs func(v graph.NodeID, cost, delay int64)
	dfs = func(v graph.NodeID, cost, delay int64) {
		if delay > bound {
			return
		}
		if v == t {
			if best < 0 || cost < best {
				best = cost
			}
			return
		}
		for _, id := range g.Out(v) {
			e := g.Edge(id)
			if on[e.To] {
				continue
			}
			on[e.To] = true
			cur = append(cur, id)
			dfs(e.To, cost+e.Cost, delay+e.Delay)
			cur = cur[:len(cur)-1]
			delete(on, e.To)
		}
	}
	dfs(s, 0, 0)
	return best, best >= 0
}

func randG(r *rand.Rand, n, m int, maxC, maxD int64) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), r.Int63n(maxC+1), r.Int63n(maxD+1))
		}
	}
	return g
}

func TestExactDPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		g := randG(r, n, 3*n, 15, 8)
		bound := r.Int63n(20)
		want, feasible := bruteRSP(g, 0, graph.NodeID(n-1), bound)
		res, err := ExactDP(g, 0, graph.NodeID(n-1), bound)
		if err != nil {
			return !feasible
		}
		return feasible && res.Cost == want && res.Delay <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLayeredBestAndPath(t *testing.T) {
	g := mk()
	l := runLayered(g, 0, 25)
	b, d := l.best(3)
	if d != 2 || b < 0 {
		t.Fatalf("best = %d @ layer %d", d, b)
	}
	p := l.pathTo(g, 3, b)
	if p.Cost(g) != 2 {
		t.Fatalf("path cost %d", p.Cost(g))
	}
}
