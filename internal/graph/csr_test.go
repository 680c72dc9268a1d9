package graph

import (
	"math/rand"
	"testing"
)

// randomDigraph builds a seeded multigraph with parallel edges and a few
// self-loop-free random arcs, mirroring the shapes residual graphs take.
func randomDigraph(seed int64, n, m int) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		for v == u {
			v = NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(50)), int64(rng.Intn(50)))
	}
	return g
}

// requireMirrors asserts the view matches g — a graph built fresh with the
// view's current orientations — edge for edge, and that every merged row
// lists exactly g's adjacency in g's order.
func requireMirrors(t *testing.T, c *CSR, g *Digraph) {
	t.Helper()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("size: view %d/%d vs graph %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.EdgesView() {
		id := e.ID
		if c.Tail(id) != e.From || c.Head(id) != e.To || c.Cost(id) != e.Cost || c.Delay(id) != e.Delay {
			t.Fatalf("edge %d is %d→%d (%d,%d), graph has %+v", id, c.Tail(id), c.Head(id), c.Cost(id), c.Delay(id), e)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		out := c.Out(NodeID(v))
		for k, want := range g.Out(NodeID(v)) {
			if id, ok := out.Next(); !ok || id != want {
				t.Fatalf("row %d diverges at position %d: got %d (ok=%v), want %d", v, k, id, ok, want)
			}
		}
		if id, ok := out.Next(); ok {
			t.Fatalf("row %d has extra edge %d", v, id)
		}
	}
}

// oriented rebuilds g with every edge the view reports reversed inserted
// reversed and negated — what a fresh construction with the view's current
// orientations looks like.
func oriented(g *Digraph, c *CSR) *Digraph {
	r := New(g.NumNodes())
	for _, e := range g.EdgesView() {
		if c.Reversed(e.ID) {
			r.AddEdge(e.To, e.From, -e.Cost, -e.Delay)
		} else {
			r.AddEdge(e.From, e.To, e.Cost, e.Delay)
		}
	}
	return r
}

func TestCSRMirrorsFreshGraph(t *testing.T) {
	g := randomDigraph(1, 40, 200)
	c := NewCSR(g)
	requireMirrors(t, c, g)
	if c.Mixed() {
		t.Fatalf("fresh CSR reports Mixed")
	}
	for v := 0; v < g.NumNodes(); v++ {
		out, in := c.OutRow(NodeID(v)), c.InRow(NodeID(v))
		if len(out) != len(g.Out(NodeID(v))) || len(in) != len(g.In(NodeID(v))) {
			t.Fatalf("row %d: degrees %d/%d vs %d/%d", v, len(out), len(in), len(g.Out(NodeID(v))), len(g.In(NodeID(v))))
		}
		for i, id := range in {
			if id != g.In(NodeID(v))[i] {
				t.Fatalf("in row %d differs at %d", v, i)
			}
		}
	}
}

// TestCSRFlipTracksDigraph drives a random flip sequence through a view (rev
// bits) and checks its merged rows stay identical to the adjacency of a
// graph freshly built with the current orientations — the property every
// residual-path kernel relies on.
func TestCSRFlipTracksDigraph(t *testing.T) {
	g := randomDigraph(2, 30, 150)
	c := NewCSR(g)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		c.Flip(EdgeID(rng.Intn(g.NumEdges())))
		if step%37 == 0 {
			requireMirrors(t, c, oriented(g, c))
		}
	}
	requireMirrors(t, c, oriented(g, c))
}

func TestCSRFlipIsInvolutive(t *testing.T) {
	g := randomDigraph(3, 10, 40)
	c := NewCSR(g)
	c.Flip(5)
	if !c.Mixed() || !c.Reversed(5) {
		t.Fatalf("flip not recorded")
	}
	e := g.Edge(5)
	if c.Tail(5) != e.To || c.Head(5) != e.From || c.Cost(5) != -e.Cost || c.Delay(5) != -e.Delay {
		t.Fatalf("flip mismatch: %d→%d (%d,%d)", c.Tail(5), c.Head(5), c.Cost(5), c.Delay(5))
	}
	c.Flip(5)
	if c.Mixed() || c.Reversed(5) {
		t.Fatalf("double flip should restore orientation")
	}
	requireMirrors(t, c, g)
}

func TestCSRSetWeights(t *testing.T) {
	g := randomDigraph(4, 10, 40)
	c := NewCSR(g)
	c.Flip(0)
	c.SetWeights(1, 99, -3)
	if c.Cost(1) != 99 || c.Delay(1) != -3 {
		t.Fatalf("SetWeights not applied: (%d,%d)", c.Cost(1), c.Delay(1))
	}
	want := oriented(g, c)
	want.SetEdgeWeights(1, 99, -3)
	requireMirrors(t, c, want)
}

// TestCSRCloneIsIndependent: flips and weight edits on a clone leave the
// original view untouched.
func TestCSRCloneIsIndependent(t *testing.T) {
	g := randomDigraph(5, 10, 40)
	c := NewCSR(g)
	c.Flip(3)
	d := c.Clone()
	d.Flip(7)
	d.SetWeights(3, 0, 0)
	requireMirrors(t, c, oriented(g, c))
	if !d.Reversed(7) || d.Cost(3) != 0 {
		t.Fatalf("clone lost its own edits")
	}
}
