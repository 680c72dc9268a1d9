package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func mkDiamond(t *testing.T) *Digraph {
	t.Helper()
	g := New(4)
	g.AddEdge(0, 1, 1, 2) // e0
	g.AddEdge(0, 2, 2, 1) // e1
	g.AddEdge(1, 3, 3, 4) // e2
	g.AddEdge(2, 3, 4, 3) // e3
	g.AddEdge(1, 2, 5, 5) // e4
	return g
}

func TestNewAndAddEdge(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	id := g.AddEdge(0, 1, 7, 9)
	if id != 0 {
		t.Fatalf("first edge ID = %d", id)
	}
	e := g.Edge(id)
	if e.From != 0 || e.To != 1 || e.Cost != 7 || e.Delay != 9 {
		t.Fatalf("edge = %+v", e)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNode(t *testing.T) {
	g := New(1)
	v := g.AddNode()
	if v != 1 || g.NumNodes() != 2 {
		t.Fatalf("AddNode gave %d, n=%d", v, g.NumNodes())
	}
	g.AddEdge(0, v, 1, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 1, 1)
	b := g.AddEdge(0, 1, 2, 2)
	if a == b {
		t.Fatal("parallel edges must get distinct IDs")
	}
	ids := g.FindEdges(0, 1)
	if len(ids) != 2 {
		t.Fatalf("FindEdges = %v", ids)
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := mkDiamond(t)
	if len(g.Out(0)) != 2 || len(g.In(3)) != 2 {
		t.Fatalf("out(0)=%d in(3)=%d", len(g.Out(0)), len(g.In(3)))
	}
	if len(g.Out(1)) != 2 || len(g.In(2)) != 2 {
		t.Fatalf("out(1)=%d in(2)=%d", len(g.Out(1)), len(g.In(2)))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mkDiamond(t)
	c := g.Clone()
	c.AddEdge(3, 0, 1, 1)
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("clone shares edge storage")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTotalsAndExtremes(t *testing.T) {
	g := mkDiamond(t)
	if g.SumCost() != 15 || g.SumDelay() != 15 {
		t.Fatalf("sums = %d/%d", g.SumCost(), g.SumDelay())
	}
	if g.MaxCost() != 5 || g.MaxDelay() != 5 {
		t.Fatalf("max = %d/%d", g.MaxCost(), g.MaxDelay())
	}
	if g.TotalCost([]EdgeID{0, 2}) != 4 {
		t.Fatalf("TotalCost = %d", g.TotalCost([]EdgeID{0, 2}))
	}
	if g.TotalDelay([]EdgeID{1, 3}) != 4 {
		t.Fatalf("TotalDelay = %d", g.TotalDelay([]EdgeID{1, 3}))
	}
}

func TestHasNonNegativeWeights(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1, 1)
	if !g.HasNonNegativeWeights() {
		t.Fatal("want nonnegative")
	}
	g.AddEdge(1, 0, -1, 1)
	if g.HasNonNegativeWeights() {
		t.Fatal("want negative detected")
	}
}

func TestPathValidateAndMetrics(t *testing.T) {
	g := mkDiamond(t)
	p := Path{Edges: []EdgeID{0, 2}} // 0→1→3
	if err := p.Validate(g, 0, 3, true); err != nil {
		t.Fatal(err)
	}
	if p.Cost(g) != 4 || p.Delay(g) != 6 {
		t.Fatalf("cost/delay = %d/%d", p.Cost(g), p.Delay(g))
	}
	if p.From(g) != 0 || p.To(g) != 3 {
		t.Fatalf("endpoints %d %d", p.From(g), p.To(g))
	}
	nodes := p.Nodes(g)
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	if got := p.Format(g); got != "0->1->3" {
		t.Fatalf("format = %q", got)
	}
}

func TestPathValidateRejects(t *testing.T) {
	g := mkDiamond(t)
	cases := []struct {
		name string
		p    Path
		s, t NodeID
	}{
		{"discontiguous", Path{Edges: []EdgeID{0, 3}}, 0, 3},
		{"wrong start", Path{Edges: []EdgeID{2}}, 0, 3},
		{"wrong end", Path{Edges: []EdgeID{0}}, 0, 3},
		{"repeated edge", Path{Edges: []EdgeID{0, 4, 3}}, 0, 0},
		{"empty with s!=t", Path{}, 0, 3},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(g, tc.s, tc.t, false); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPathSimpleDetectsRevisit(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1) // e0
	g.AddEdge(1, 0, 1, 1) // e1
	g.AddEdge(0, 2, 1, 1) // e2
	p := Path{Edges: []EdgeID{0, 1, 2}}
	if err := p.Validate(g, 0, 2, false); err != nil {
		t.Fatalf("non-simple walk should pass: %v", err)
	}
	if err := p.Validate(g, 0, 2, true); err == nil {
		t.Fatal("simple validation should reject revisit of 0")
	}
}

func TestCycleValidate(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 0, 1, 1)
	c := Cycle{Edges: []EdgeID{0, 1, 2}}
	if err := c.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if c.Cost(g) != 3 || c.Delay(g) != 3 {
		t.Fatalf("cycle cost/delay %d/%d", c.Cost(g), c.Delay(g))
	}
	if got := c.Format(g); got != "0->1->2->0" {
		t.Fatalf("format = %q", got)
	}
	bad := Cycle{Edges: []EdgeID{0, 1}}
	if err := bad.Validate(g, true); err == nil {
		t.Fatal("open walk accepted as cycle")
	}
	if err := (Cycle{}).Validate(g, true); err == nil {
		t.Fatal("empty cycle accepted")
	}
}

func TestEdgeSetOps(t *testing.T) {
	a := NewEdgeSet(1, 2, 3)
	b := NewEdgeSet(3, 4)
	if got := a.Minus(b).IDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("minus %v", got)
	}
	c := a.Clone()
	c.Remove(1)
	if !a.Has(1) || c.Has(1) {
		t.Fatal("clone not independent")
	}
	c.Add(9)
	if !c.Has(9) {
		t.Fatal("Add failed")
	}
}

// Minus returns s \ t.
func (s EdgeSet) Minus(t EdgeSet) EdgeSet {
	u := NewEdgeSet()
	for id := range s.m {
		if !t.Has(id) {
			u.m[id] = struct{}{}
		}
	}
	return u
}

// OPlus implements the paper's ⊕ operator on edge sets of a single graph
// (Section 2.1): E1 ⊕ E2 is E1 ∪ E2 with every pair of opposite parallel
// edges {e(u,v), e'(v,u)} removed. In the flow view this cancels a unit of
// forward flow against a unit of reverse flow.
//
// Identification of "opposite parallel" pairs is positional: an edge u→v in
// the union cancels against an edge v→u in the union. When several
// candidates exist (multigraph), pairs are cancelled greedily in ascending
// ID order, which is the standard flow-cancellation semantics: the paper's
// residual graphs never contain both an edge and its reverse inside the
// same operand, so the greedy choice is canonical there. The solver
// computes ⊕ through residual.Graph (ApplyAll, SolutionCycles); this
// reference states the operator for the property tests below.
func OPlus(g *Digraph, e1, e2 EdgeSet) EdgeSet {
	union := e1.Clone()
	e2.Each(union.Add)
	ids := union.IDs()
	// Bucket edges of the union by unordered endpoint pair, then cancel
	// opposite directions pairwise.
	type key struct{ a, b NodeID }
	norm := func(u, v NodeID) key {
		if u <= v {
			return key{u, v}
		}
		return key{v, u}
	}
	buckets := make(map[key][]EdgeID)
	for _, id := range ids {
		e := g.Edge(id)
		k := norm(e.From, e.To)
		buckets[k] = append(buckets[k], id)
	}
	dropped := NewEdgeSet()
	// Re-walk ids so buckets are processed in first-seen (ascending edge
	// ID) order; ranging over the map would order cancellations by hash.
	for _, id := range ids {
		e := g.Edge(id)
		k := norm(e.From, e.To)
		members, pending := buckets[k]
		if !pending {
			continue
		}
		delete(buckets, k)
		var fwd, bwd []EdgeID // k.a→k.b and k.b→k.a respectively
		for _, id := range members {
			if g.Edge(id).From == k.a {
				fwd = append(fwd, id)
			} else {
				bwd = append(bwd, id)
			}
		}
		n := len(fwd)
		if len(bwd) < n {
			n = len(bwd)
		}
		for i := 0; i < n; i++ {
			dropped.Add(fwd[i])
			dropped.Add(bwd[i])
		}
	}
	return union.Minus(dropped)
}

func TestOPlusCancelsOppositePairs(t *testing.T) {
	// Graph with edge 0→1 and its reverse 1→0 (as in a residual graph).
	g := New(2)
	fwd := g.AddEdge(0, 1, 5, 5)
	bwd := g.AddEdge(1, 0, -5, -5)
	res := OPlus(g, NewEdgeSet(fwd), NewEdgeSet(bwd))
	if res.Len() != 0 {
		t.Fatalf("opposite pair should cancel, got %v", res.IDs())
	}
}

func TestOPlusKeepsNonOpposite(t *testing.T) {
	g := mkDiamond(t)
	res := OPlus(g, NewEdgeSet(0, 2), NewEdgeSet(1, 3))
	if res.Len() != 4 {
		t.Fatalf("nothing should cancel, got %v", res.IDs())
	}
}

func TestOPlusMultigraphGreedy(t *testing.T) {
	g := New(2)
	f1 := g.AddEdge(0, 1, 1, 1)
	f2 := g.AddEdge(0, 1, 2, 2)
	b1 := g.AddEdge(1, 0, 3, 3)
	res := OPlus(g, NewEdgeSet(f1, f2), NewEdgeSet(b1))
	// One forward edge cancels against the single backward edge.
	if res.Len() != 1 {
		t.Fatalf("want one survivor, got %v", res.IDs())
	}
}

func TestInstanceValidate(t *testing.T) {
	g := mkDiamond(t)
	ok := Instance{G: g, S: 0, T: 3, K: 2, Bound: 10}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Instance{
		{G: nil, S: 0, T: 3, K: 2, Bound: 10},
		{G: g, S: -1, T: 3, K: 2, Bound: 10},
		{G: g, S: 0, T: 99, K: 2, Bound: 10},
		{G: g, S: 0, T: 0, K: 2, Bound: 10},
		{G: g, S: 0, T: 3, K: 0, Bound: 10},
		{G: g, S: 0, T: 3, K: 2, Bound: -1},
	}
	for i, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSolutionValidateAndMetrics(t *testing.T) {
	g := mkDiamond(t)
	ins := Instance{G: g, S: 0, T: 3, K: 2, Bound: 100}
	sol := Solution{Paths: []Path{Path{Edges: []EdgeID{0, 2}}, Path{Edges: []EdgeID{1, 3}}}}
	if err := sol.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if sol.Cost(g) != 10 || sol.Delay(g) != 10 {
		t.Fatalf("cost/delay %d/%d", sol.Cost(g), sol.Delay(g))
	}
	ids := sol.EdgeIDs()
	if len(ids) != 4 {
		t.Fatalf("edges %v", ids)
	}
	// Shared edge must be rejected.
	shared := Solution{Paths: []Path{Path{Edges: []EdgeID{0, 2}}, Path{Edges: []EdgeID{0, 4, 3}}}}
	if err := shared.Validate(ins); err == nil {
		t.Fatal("edge sharing accepted")
	}
	// Wrong count.
	one := Solution{Paths: []Path{Path{Edges: []EdgeID{0, 2}}}}
	if err := one.Validate(ins); err == nil {
		t.Fatal("wrong path count accepted")
	}
}

func TestInstanceIORoundTrip(t *testing.T) {
	g := mkDiamond(t)
	ins := Instance{G: g, S: 0, T: 3, K: 2, Bound: 10, Name: "diamond test"}
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.S != ins.S || back.T != ins.T || back.K != ins.K || back.Bound != ins.Bound || back.Name != ins.Name {
		t.Fatalf("header mismatch: %+v", back)
	}
	if back.G.NumNodes() != g.NumNodes() || back.G.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch")
	}
	for _, e := range g.Edges() {
		if back.G.Edge(e.ID) != e {
			t.Fatalf("edge %d mismatch", e.ID)
		}
	}
}

func TestReadInstanceErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header",
		"krsp v1\nedge 0 1 1 1\n",          // edge before nodes
		"krsp v1\nnodes 2\nedge 0 5 1 1\n", // endpoint out of range
		"krsp v1\nnodes 2\nfrobnicate 1\n", // unknown directive
		"krsp v1\nnodes x\n",               // bad count
		"krsp v1\nnodes 2\nedge 0 1 1\n",   // short edge
		"krsp v1\nnodes 2\nst 0\n",         // short st
		"krsp v1\nnodes 2\nk zz\n",         // bad k
		"krsp v1\nnodes 2\nbound zz\n",     // bad bound
	}
	for i, src := range cases {
		if _, err := ReadInstance(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %q", i, src)
		}
	}
}

// TestReadNodeCountCap: a node count above MaxNodes fails on its own line
// before anything n-sized is allocated, in both text formats.
func TestReadNodeCountCap(t *testing.T) {
	for _, tc := range []struct {
		read func(io.Reader) (Instance, error)
		src  string
		want string
	}{
		{ReadInstance, "krsp v1\nnodes 100000000\n", "line 2: node count 100000000 exceeds MaxNodes=4194304"},
		{ReadDIMACS, "c big\np sp 100000000 0\n", "dimacs line 2: node count 100000000 exceeds MaxNodes=4194304"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.read(strings.NewReader(tc.src))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.src, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%q: allocated %d bytes before failing, want < 1 MiB", tc.src, got)
		}
	}
}

// TestReadInstanceLineCap: a line of maxLine bytes or more fails with
// bufio.ErrTooLong and one byte shorter parses, with or without a newline
// after it, as in the reference parser.
func TestReadInstanceLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB lines: skipped under -short")
	}
	for _, tc := range []struct {
		pad  int
		tail string
		want string
	}{
		{maxLine - 1, "\nnodes 1\n", "<nil>"},
		{maxLine - 1, "", "missing 'nodes' directive"},
		{maxLine, "\nnodes 1\n", bufio.ErrTooLong.Error()},
		{maxLine, "", bufio.ErrTooLong.Error()},
	} {
		src := "krsp v1\n#" + strings.Repeat("x", tc.pad-1) + tc.tail
		_, err := ReadInstance(strings.NewReader(src))
		_, refErr := refReadInstance(strings.NewReader(src))
		if got, ref := fmt.Sprint(err), fmt.Sprint(refErr); got != tc.want || ref != tc.want {
			t.Errorf("%d-byte line then %q: error %s, reference %s, want %s", tc.pad, tc.tail, got, ref, tc.want)
		}
	}
}

// TestReadInstanceReadError: a reader failing mid-input yields its error
// unwrapped once every line read before it has parsed, so a bad line before
// the failure wins, as in the reference parser.
func TestReadInstanceReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		prefix string
		want   string
	}{
		{"", "boom"},
		{"krsp v1\nnodes 2\nedge 0 1 2 3", "boom"},
		{"krsp v1\nnodes 2\nedge 0 1 2", "line 3: edge wants 4 arguments"},
		{"krsp v1\nfrob\nnodes 2\n", "line 2: unknown directive \"frob\""},
	} {
		read := func(parse func(io.Reader) (Instance, error)) error {
			_, err := parse(io.MultiReader(strings.NewReader(tc.prefix), iotest.ErrReader(boom)))
			return err
		}
		err, refErr := read(ReadInstance), read(refReadInstance)
		if fmt.Sprint(err) != tc.want || fmt.Sprint(refErr) != tc.want {
			t.Errorf("%q: error %v, reference %v, want %s", tc.prefix, err, refErr, tc.want)
		}
		if tc.want == "boom" && !errors.Is(err, boom) {
			t.Errorf("%q: read error %v does not match errors.Is", tc.prefix, err)
		}
	}
}

func TestReadInstanceSkipsCommentsAndBlank(t *testing.T) {
	src := "krsp v1\n# a comment\n\nnodes 2\nst 0 1\nk 1\nbound 5\nedge 0 1 3 4\n"
	ins, err := ReadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if ins.G.NumEdges() != 1 || ins.Bound != 5 {
		t.Fatalf("parse wrong: %+v", ins)
	}
}

func TestWriteDOT(t *testing.T) {
	g := mkDiamond(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "demo", NewEdgeSet(0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph \"demo\"") || !strings.Contains(out, "color=red") {
		t.Fatalf("dot output missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "0 -> 1 [label=\"1/2\", color=red") {
		t.Fatalf("highlight edge not rendered:\n%s", out)
	}
}

// randomGraph builds a random digraph for property tests.
func randomGraph(r *rand.Rand, maxN, maxM int) *Digraph {
	n := 2 + r.Intn(maxN-1)
	g := New(n)
	m := r.Intn(maxM + 1)
	for i := 0; i < m; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		g.AddEdge(u, v, int64(r.Intn(100)), int64(r.Intn(100)))
	}
	return g
}

func TestQuickGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 20, 60)
		if g.Validate() != nil {
			return false
		}
		// Degree sums equal edge count.
		var outSum, inSum int
		for v := 0; v < g.NumNodes(); v++ {
			outSum += len(g.Out(NodeID(v)))
			inSum += len(g.In(NodeID(v)))
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 12, 40)
		ins := Instance{G: g, S: 0, T: 1, K: 1 + r.Intn(3), Bound: int64(r.Intn(1000))}
		var buf bytes.Buffer
		if WriteInstance(&buf, ins) != nil {
			return false
		}
		back, err := ReadInstance(&buf)
		if err != nil {
			return false
		}
		if back.G.NumEdges() != g.NumEdges() || back.Bound != ins.Bound || back.K != ins.K {
			return false
		}
		for _, e := range g.Edges() {
			if back.G.Edge(e.ID) != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOPlusDegreeParity(t *testing.T) {
	// ⊕ preserves per-vertex (out-in) degree balance mod cancellation:
	// cancelling an opposite pair changes both endpoints' balance by zero.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 10, 30)
		var ids []EdgeID
		for _, e := range g.Edges() {
			ids = append(ids, e.ID)
		}
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		half := len(ids) / 2
		e1 := NewEdgeSet(ids[:half]...)
		e2 := NewEdgeSet(ids[half:]...)
		balance := func(set EdgeSet) map[NodeID]int {
			b := map[NodeID]int{}
			for _, id := range set.IDs() {
				e := g.Edge(id)
				b[e.From]++
				b[e.To]--
			}
			return b
		}
		union := e1.Clone()
		e2.Each(union.Add)
		want := balance(union)
		got := balance(OPlus(g, e1, e2))
		for v, x := range want {
			if got[v] != x {
				return false
			}
		}
		for v, x := range got {
			if want[v] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsMalformedRows checks that Validate wants each edge
// once among the out rows and once among the in rows, not merely twice in
// all: an edge listed twice in its out row and missing from its in row
// used to pass, leaving In(1) empty.
func TestValidateRejectsMalformedRows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		out, in [][]EdgeID
		want    string
	}{
		{"twice in out, missing from in", [][]EdgeID{{0, 0}, {}}, [][]EdgeID{{}, {}}, "edge 0 listed twice in out[0]"},
		{"twice in in, missing from out", [][]EdgeID{{}, {}}, [][]EdgeID{{}, {0, 0}}, "edge 0 listed twice in in[1]"},
		{"missing from in", [][]EdgeID{{0}, {}}, [][]EdgeID{{}, {}}, "edge 0 missing from in[1]"},
		{"missing from out", [][]EdgeID{{}, {}}, [][]EdgeID{{}, {0}}, "edge 0 missing from out[0]"},
	} {
		g := New(2)
		g.AddEdge(0, 1, 1, 1)
		g.out, g.in = tc.out, tc.in
		if err := g.Validate(); err == nil || err.Error() != "graph: "+tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}
