package bicameral

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

func params(dd, dc, cap int64) Params { return Params{DeltaD: dd, DeltaC: dc, CostCap: cap} }

func TestClassifyTypes(t *testing.T) {
	p := params(-15, 8, 10)
	cases := []struct {
		cost, delay int64
		want        CycleType
	}{
		{-1, -1, Type0},
		{0, -1, Type0},
		{-1, 0, Type0},
		{0, 0, TypeNone},
		{8, -18, Type1},      // −18·8 ≤ −15·8
		{8, -14, TypeNone},   // −14·8 = −112 > −120
		{8, -15, Type1},      // equality passes
		{11, -100, TypeNone}, // cost over cap
		{-8, 14, Type2},      // 14·8 = 112 ≤ (−15)(−8) = 120
		{-8, 16, TypeNone},   // 16·8 = 128 > 120
		{-11, 1, TypeNone},   // |cost| over cap
		{1, 1, TypeNone},
	}
	for _, tc := range cases {
		if got := Classify(tc.cost, tc.delay, p); got != tc.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", tc.cost, tc.delay, got, tc.want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if Type0.String() != "type-0" || Type1.String() != "type-1" ||
		Type2.String() != "type-2" || TypeNone.String() != "none" {
		t.Fatal("strings")
	}
	if EngineCombinatorial.String() != "combinatorial" || EngineLP.String() != "lp" {
		t.Fatal("engine strings")
	}
}

// TestWeightEquivalence: Classify ≠ None ⇒ W ≤ 0, and W < 0 with |c| ≤ cap
// ⇒ Classify ≠ None (the scalar-reduction the combinatorial engine relies
// on).
func TestWeightEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := params(-1-int64(r.Intn(50)), 1+int64(r.Intn(50)), 1+int64(r.Intn(30)))
		c := int64(r.Intn(81) - 40)
		d := int64(r.Intn(81) - 40)
		w := p.DeltaC*d - p.DeltaD*c
		ty := Classify(c, d, p)
		if ty != TypeNone && w > 0 {
			return false
		}
		if w < 0 && abs64(c) <= p.CostCap && ty == TypeNone {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// tradeoffInstance: cheap/slow route in the current solution, pricey/fast
// alternative available; the improving type-1 cycle swaps them.
func tradeoffInstance() (*graph.Digraph, graph.EdgeSet) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // e0 current
	g.AddEdge(1, 3, 1, 10) // e1 current
	g.AddEdge(0, 2, 5, 1)  // e2
	g.AddEdge(2, 3, 5, 1)  // e3
	return g, graph.NewEdgeSet(0, 1)
}

func TestFindType1Cycle(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	p := params(5-20, 10-2, 10) // D=5, Cref=OPT=10
	for _, engine := range []Engine{EngineCombinatorial, EngineLP} {
		cand, st, found := Find(rg, p, Options{Engine: engine})
		if !found {
			t.Fatalf("%v: no cycle found (stats %+v)", engine, st)
		}
		if cand.Type != Type1 {
			t.Fatalf("%v: type = %v", engine, cand.Type)
		}
		if cand.Cost != 8 || cand.Delay != -18 {
			t.Fatalf("%v: (c,d) = (%d,%d)", engine, cand.Cost, cand.Delay)
		}
		next, err := rg.ApplyAll(cand.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		paths, _, err := flow.Decompose(g, next, 0, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		solution := graph.Solution{Paths: paths}
		if solution.Cost(g) != 10 || solution.Delay(g) != 2 {
			t.Fatalf("%v: after apply cost/delay = %d/%d",
				engine, solution.Cost(g), solution.Delay(g))
		}
	}
}

func TestFindRespectsCostCap(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	// Cap below the swap cost 8: the only improving cycle is out of reach.
	p := params(-15, 8, 7)
	cand, st, found := Find(rg, p, Options{})
	if found {
		t.Fatalf("found %+v despite cap", cand)
	}
	// The W<0 cycle should be recorded as a relaxed-cap fallback.
	if st.Fallback == nil || st.Fallback.Cost != 8 {
		t.Fatalf("fallback = %+v", st.Fallback)
	}
}

func TestFindNoneWhenNoReversedEdges(t *testing.T) {
	g, _ := tradeoffInstance()
	rg := residual.Build(g, graph.NewEdgeSet())
	if _, _, found := Find(rg, params(-5, 5, 10), Options{}); found {
		t.Fatal("cycle without any reversed edge?")
	}
}

func TestFindNoneWhenRatioTooBad(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	// ΔD/ΔC = −1/8: need d/c ≤ −1/8... the swap has −18/8 ≤ −1/8 so it
	// WOULD qualify; instead make ΔD barely negative and ΔC huge relative:
	// require d·ΔC ≤ ΔD·c: −18·1000 ≤ −1·8 ✓ — still qualifies. The swap
	// cycle is genuinely excellent; starve it via the cap instead and
	// verify type-2 absence too (reverse swap has W>0 here).
	p := params(-1, 1000, 7)
	if _, _, found := Find(rg, p, Options{}); found {
		t.Fatal("expected no candidate under tight cap")
	}
}

func TestFindPanicsOnBadParams(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	for _, p := range []Params{params(-5, 0, 10), params(-5, 5, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", p)
				}
			}()
			Find(rg, p, Options{})
		}()
	}
}

func TestFullSweepMatchesDoubling(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	p := params(-15, 8, 10)
	c1, _, ok1 := Find(rg, p, Options{})
	c2, _, ok2 := Find(rg, p, Options{FullSweep: true})
	if !ok1 || !ok2 {
		t.Fatal("both schedules must find the cycle")
	}
	if c1.Type != c2.Type {
		t.Fatalf("types differ: %v vs %v", c1.Type, c2.Type)
	}
}

// bruteBicameral enumerates all simple residual cycles and reports whether
// any classifies as bicameral.
func bruteBicameral(rg *residual.Graph, p Params) bool {
	g := rg.View()
	n := g.NumNodes()
	found := false
	var dfs func(start, cur graph.NodeID, visited map[graph.NodeID]bool, cost, delay int64)
	dfs = func(start, cur graph.NodeID, visited map[graph.NodeID]bool, cost, delay int64) {
		if found {
			return
		}
		for out := g.Out(cur); ; {
			id, ok := out.Next()
			if !ok {
				return
			}
			to, c, d := g.Head(id), cost+g.Cost(id), delay+g.Delay(id)
			if to == start {
				if Classify(c, d, p) != TypeNone {
					found = true
					return
				}
				continue
			}
			if visited[to] || to < start {
				continue
			}
			visited[to] = true
			dfs(start, to, visited, c, d)
			delete(visited, to)
		}
	}
	for v := 0; v < n && !found; v++ {
		dfs(graph.NodeID(v), graph.NodeID(v), map[graph.NodeID]bool{}, 0, 0)
	}
	return found
}

// TestFindCompleteness: on tiny random instances, whenever a simple
// bicameral cycle exists the combinatorial engine finds a valid candidate;
// every returned candidate validates, classifies consistently, and applies
// to a legal flow.
func TestFindCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(6)), int64(r.Intn(6)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		k := 1 + r.Intn(2)
		if flow.MaxDisjointPaths(g, s, tt) < k {
			return true
		}
		fl, err := flow.MinCostKFlow(g, s, tt, k, shortest.LinCost)
		if err != nil {
			return false
		}
		rg := residual.Build(g, fl.Edges)
		p := params(-1-int64(r.Intn(20)), 1+int64(r.Intn(20)), 1+int64(r.Intn(15)))
		cand, _, found := Find(rg, p, Options{})
		exists := bruteBicameral(rg, p)
		if exists && !found {
			return false
		}
		if !found {
			return true
		}
		// Candidate consistency.
		var totC, totD int64
		for _, cyc := range cand.Cycles {
			if cyc.Validate(rg.View(), false) != nil {
				return false
			}
			totC += rg.CycleCost(cyc)
			totD += rg.CycleDelay(cyc)
		}
		if totC != cand.Cost || totD != cand.Delay {
			return false
		}
		if Classify(cand.Cost, cand.Delay, p) != cand.Type || cand.Type == TypeNone {
			return false
		}
		next, err := rg.ApplyAll(cand.Cycles)
		if err != nil {
			return false
		}
		_, _, err = flow.Decompose(g, next, s, tt, k)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLPEngineValidity: every candidate the LP engine returns is a genuine
// bicameral cycle. The LP engine may return found=false where the
// (enumeration-complete) combinatorial engine succeeds — e.g. boundary
// W = 0 cycles, or cycles whose prefix cost sums leave [0, B] — which is
// exactly the gap E8 measures; only validity is asserted here.
func TestLPEngineValidity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(3)
		g := graph.New(n)
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(4)), int64(r.Intn(4)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		if flow.MaxDisjointPaths(g, s, tt) < 1 {
			return true
		}
		fl, err := flow.MinCostKFlow(g, s, tt, 1, shortest.LinCost)
		if err != nil {
			return false
		}
		rg := residual.Build(g, fl.Edges)
		p := params(-5, 5, 6)
		lpCand, _, lpFound := Find(rg, p, Options{Engine: EngineLP})
		if !lpFound {
			return true
		}
		if Classify(lpCand.Cost, lpCand.Delay, p) != lpCand.Type || lpCand.Type == TypeNone {
			return false
		}
		for _, cyc := range lpCand.Cycles {
			if cyc.Validate(rg.View(), false) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMinRatioEngineFindsSwapCycle(t *testing.T) {
	g, sol := tradeoffInstance()
	rg := residual.Build(g, sol)
	p := params(5-20, 10-2, 10)
	cand, _, found := Find(rg, p, Options{Engine: EngineMinRatio})
	if !found {
		t.Fatal("minratio engine missed the improving cycle")
	}
	if cand.Type == TypeNone {
		t.Fatalf("candidate type %v", cand.Type)
	}
	if Classify(cand.Cost, cand.Delay, p) != cand.Type {
		t.Fatal("classification inconsistent")
	}
	for _, cyc := range cand.Cycles {
		if err := cyc.Validate(rg.View(), false); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMinRatioEngineValidity(t *testing.T) {
	// Whatever the [18]-style engine returns must be a genuine bicameral
	// candidate; it may legitimately return found=false where the
	// combinatorial engine succeeds (that incompleteness is the ablation's
	// point), so only validity is asserted here.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(6)), int64(r.Intn(6)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		if flow.MaxDisjointPaths(g, s, tt) < 1 {
			return true
		}
		fl, err := flow.MinCostKFlow(g, s, tt, 1, shortest.LinCost)
		if err != nil {
			return false
		}
		rg := residual.Build(g, fl.Edges)
		p := params(-1-int64(r.Intn(20)), 1+int64(r.Intn(20)), 1+int64(r.Intn(15)))
		cand, _, found := Find(rg, p, Options{Engine: EngineMinRatio})
		if !found {
			return true
		}
		var totC, totD int64
		for _, cyc := range cand.Cycles {
			if cyc.Validate(rg.View(), false) != nil {
				return false
			}
			totC += rg.CycleCost(cyc)
			totD += rg.CycleDelay(cyc)
		}
		return totC == cand.Cost && totD == cand.Delay &&
			Classify(cand.Cost, cand.Delay, p) == cand.Type && cand.Type != TypeNone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStrings(t *testing.T) {
	if EngineMinRatio.String() != "minratio" {
		t.Fatal("engine string")
	}
}

func TestFindPanicsOnOverflowRisk(t *testing.T) {
	g := graph.New(2)
	huge := int64(1) << 40
	g.AddEdge(0, 1, huge, huge)
	g.AddEdge(1, 0, huge, huge)
	rg := residual.Build(g, graph.NewEdgeSet(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	Find(rg, Params{DeltaD: -huge, DeltaC: huge, CostCap: huge}, Options{})
}
