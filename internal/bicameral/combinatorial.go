package bicameral

import (
	"repro/internal/auxgraph"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// findCombinatorial is the primary engine: for an escalating cost budget B
// it builds the TwoSided layered graph (wrap edges at every reversed-edge
// endpoint) and runs negative-cycle detection under the combined weight
// W(e) = ΔC·d(e) − ΔD·c(e). Any W-negative cycle projects onto residual
// cycles among which at least one has W < 0, i.e. is bicameral up to the
// cost cap. Budgets escalate until Σ|c|: at that point every residual
// cycle is representable (prefix cost sums are bounded by Σ|c|), so a
// combinatorially complete answer is reached. k is the lexicographic
// factor (n+1)·max(|c|, |d|) + 1 that Find's overflow guard computed.
func findCombinatorial(rg *residual.Graph, p Params, o Options, k int64) (Candidate, Stats, bool) {
	seeds := rg.ReversedSeeds()
	if len(seeds) == 0 {
		// Without reversed edges every edge has W ≥ 0 (ΔC>0, ΔD<0 against
		// nonnegative weights): no bicameral cycle can exist.
		return Candidate{}, Stats{}, false
	}
	// One workspace serves every search: the detection rounds, the shared
	// layered sweeps and the per-seed sweeps (it grows to layered size on
	// first use). Its SPFA counts go back to the caller in Stats.
	ws := shortest.NewWorkspace(rg.View().NumNodes())
	ws.SetCancel(o.Cancel)
	cand, st, found := searchCombinatorial(ws, rg, seeds, p, o, k)
	st.SPFA = ws.SPFA
	return cand, st, found
}

// searchCombinatorial is findCombinatorial's search on the workspace ws,
// seeded at the residual's reversed-edge endpoints.
func searchCombinatorial(ws *shortest.Workspace, rg *residual.Graph, seeds []graph.NodeID, p Params, o Options, k int64) (Candidate, Stats, bool) {
	var st Stats
	// The fast-path detection rounds below run on the residual's CSR view:
	// flat weight arrays for the scans here, packed rows for the SPFA sweeps.
	view := rg.View()
	m := view.NumEdges()
	sumAbs := int64(0)
	for i := 0; i < m; i++ {
		if c := view.Cost(graph.EdgeID(i)); c >= 0 {
			sumAbs += c
		} else {
			sumAbs -= c
		}
	}
	// The ceiling is Σ|c|: prefix cost sums of ANY simple cycle fit in
	// [−Σ|c|, Σ|c|], so escalating to sumAbs makes the search complete.
	// Note the cap does NOT bound the ceiling — a cap-respecting cycle may
	// have prefix sums far above its total cost.
	maxB := sumAbs
	if maxB < 1 {
		maxB = 1
	}
	b := int64(1)

	var best Candidate
	haveBest := false

	// Adversarial mode (experiment E3 only) wants the WORST qualifying
	// cycle, which detection-based search cannot rank; use the complete
	// enumerator directly (E3 instances are tiny).
	if o.Adversarial {
		if cand, found, _ := enumerateQualifying(rg, p, o, &st); found {
			return cand, st, true
		}
	}

	// Fast path: look for negative-W cycles in the residual graph itself,
	// with no cost-layer constraint. If none exists at all, no bicameral
	// cycle exists at ANY budget (bicameral ⇒ W < 0) and the layered
	// machinery can be skipped entirely. When a detected cycle fails the
	// cap, its edges are excluded and detection restarts — the detector
	// would otherwise keep returning the same dominating cycle and mask
	// qualifying ones.
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	anyNegative := false
	// Excluded edges are masked by a sentinel weight instead of cloning the
	// graph minus them (the clone dominated the engine's allocations): with
	// all-sources detection every tentative distance is ≤ 0 and only ever
	// decreases, so a relaxation through a sentinel edge (du + sentinel > 0)
	// can never win — the edge is unreachable without rebuilding anything.
	// The CSR kernel applies the same sentinel to !alive edges internally;
	// Find's overflow guard keeps |du| < 2^61, so the sum cannot overflow.
	//
	// Detection weights. Definition 10's type-1/2 allow boundary cycles
	// with W = 0 exactly (d·ΔC = ΔD·c), which pure W<0 detection misses.
	// Lexicographic weights make them strictly negative: a cycle is
	// negative under W·K + d iff W < 0, or W = 0 with negative delay
	// (a boundary type-1); under W·K + c iff W < 0, or W = 0 with negative
	// cost (a boundary type-2). K = k > n·max(|d|,|c|) prevents the secondary
	// term from flipping the primary's sign over any simple cycle.
	// The lexicographic weights in LinWeight form: W(e)·K + d and W(e)·K + c
	// expanded over W(e) = ΔC·d − ΔD·c (two's-complement distributivity
	// keeps them bitwise equal to the unexpanded forms at any magnitude).
	// The layered sweeps below search under the delay-lexicographic one.
	weights := []shortest.LinWeight{
		{Q: -p.DeltaD * k, P: p.DeltaC*k + 1},
		{Q: -p.DeltaD*k + 1, P: p.DeltaC * k},
	}
	wi := 0
	for round := 0; round <= 2*m+1; round++ {
		if o.Cancel.Stopped() {
			// A cancelled kernel reports "no cycle"; don't let that masquerade
			// as the completeness proof below — bail out as not-found and let
			// core read Stopped().
			return Candidate{}, st, false
		}
		st.Searches++
		_, cyc, noNeg := shortest.SPFAAllCSRInto(ws, view, weights[wi], alive)
		if noNeg {
			if wi+1 < len(weights) {
				// Switch to the cost-lexicographic weight with a fresh
				// exclusion slate (boundary type-2 hunting).
				wi++
				for i := range alive {
					alive[i] = true
				}
				continue
			}
			break
		}
		anyNegative = true
		base := graph.Cycle{Edges: cyc.Edges}
		cc, dd := rg.CycleCost(base), rg.CycleDelay(base)
		st.Candidates++
		cand := Candidate{Cycles: []graph.Cycle{base}, Cost: cc, Delay: dd,
			Type: Classify(cc, dd, p)}
		if cand.Type != TypeNone {
			return cand, st, true
		}
		if st.Fallback == nil || p.Weight(graph.Edge{Cost: cc, Delay: dd}) <
			p.Weight(graph.Edge{Cost: st.Fallback.Cost, Delay: st.Fallback.Delay}) {
			ccopy := cand
			st.Fallback = &ccopy
		}
		for _, id := range cyc.Edges {
			alive[id] = false
		}
	}
	if !anyNegative {
		return Candidate{}, st, false
	}

	// Bounded exhaustive fallback: a W<0 cycle exists but every detected
	// one failed the cap. Enumerate simple residual cycles outright (with a
	// step budget); complete whenever the budget is not exhausted, which
	// covers all small and medium instances. Detection + exclusion above is
	// a heuristic: overlapping negative cycles can mask qualifying ones.
	if cand, found, exhausted := enumerateQualifying(rg, p, o, &st); found {
		return cand, st, true
	} else if !exhausted {
		// Enumeration completed without finding a candidate: none exists.
		return Candidate{}, st, false
	}

	// Work guard: layered graphs have (2B+1)·n vertices; past a few million
	// states the search costs more than the guarantee it buys, and the
	// caller's fallback (relaxed cap or the feasible phase-1 flow) keeps
	// the output correct. The guard only trims the adversarial tail — the
	// fast path and the enumerator have already handled everything else.
	const maxStates = 1_000_000
	// relaxBudget caps each layered detection pass: SPFA's worst case is
	// O(V·E), hopeless on million-state graphs; a budget keeps the layered
	// phase best-effort (its misses are covered by the enumerator and the
	// caller's fallbacks).
	const relaxBudget = 1_000_000
	nodes64 := int64(view.NumNodes() + m)
	for {
		if o.Cancel.Check() {
			break
		}
		if (2*b+1)*nodes64 > maxStates {
			break
		}
		st.BudgetsTried++
		st.LastBudget = b
		a := auxgraph.BuildShared(view, seeds, b)
		st.Searches++
		hCyc, negFound, _ := shortest.SPFAAllBoundedCSRInto(ws, a.H, weights[0], relaxBudget)
		if negFound {
			cands := candidatesFromWalk(rg, a, hCyc.Edges, p, &st)
			for _, c := range cands {
				if c.Type == TypeNone {
					continue
				}
				if !haveBest || better(c, best, o.Adversarial) {
					best, haveBest = c, true
				}
			}
			if haveBest {
				return best, st, true
			}
			// The detected cycle produced no cap-respecting candidate. Try
			// per-seed graphs for structural diversity before escalating —
			// unless the combined state count across seeds blows the work
			// guard, in which case budgets keep escalating without it.
			perSeed := seeds
			if int64(len(seeds))*(2*b+1)*nodes64 > maxStates {
				perSeed = nil
			}
			if cand, found := sweepSeeds(ws, rg, perSeed, b, weights[0], relaxBudget, p, o, &st); found {
				return cand, st, true
			}
		}
		if b >= maxB {
			break
		}
		if o.FullSweep {
			b++
		} else {
			b *= 2
			if b > maxB {
				b = maxB
			}
		}
	}
	return Candidate{}, st, false
}

// candidatesFromWalk projects a closed H-walk to residual cycles and emits
// classified candidates: every vertex-simple projected cycle individually,
// plus — when the projected cycles share no residual edge — the whole
// bundle. W<0 walks whose bundle violates the cost cap feed Stats.Fallback.
func candidatesFromWalk(rg *residual.Graph, a *auxgraph.Aux, hEdges []graph.EdgeID, p Params, st *Stats) []Candidate {
	cycles := a.ProjectWalk(hEdges)
	if len(cycles) == 0 {
		return nil
	}
	var out []Candidate
	consider := func(c Candidate) {
		st.Candidates++
		c.Type = Classify(c.Cost, c.Delay, p)
		if c.Type != TypeNone {
			out = append(out, c)
			return
		}
		// Track a relaxed-cap fallback: W < 0 but |cost| over the cap.
		if p.DeltaC*c.Delay-p.DeltaD*c.Cost < 0 { //lint:allow weightovf combined weight W; bounded by Find's entry guard
			if st.Fallback == nil || p.DeltaC*c.Delay-p.DeltaD*c.Cost < //lint:allow weightovf combined weight W; bounded by Find's entry guard
				p.DeltaC*st.Fallback.Delay-p.DeltaD*st.Fallback.Cost { //lint:allow weightovf combined weight W; bounded by Find's entry guard
				cc := c
				st.Fallback = &cc
			}
		}
	}
	seen := graph.NewEdgeSet()
	disjoint := true
	var totC, totD int64
	for _, cyc := range cycles {
		cc := rg.CycleCost(cyc)
		dd := rg.CycleDelay(cyc)
		totC += cc
		totD += dd
		consider(Candidate{Cycles: []graph.Cycle{cyc}, Cost: cc, Delay: dd})
		for _, id := range cyc.Edges {
			if seen.Has(id) {
				disjoint = false
			}
			seen.Add(id)
		}
	}
	if disjoint && len(cycles) > 1 {
		consider(Candidate{Cycles: cycles, Cost: totC, Delay: totD})
	}
	// Wrap-segment bundles: pieces of the H-cycle between consecutive wrap
	// edges project to closed base walks whose total cost sits inside
	// [−B, B] even when the full bundle does not. Only closed segments with
	// unique base edges are usable (Proposition 7 needs edge-disjointness).
	var segment []graph.EdgeID
	flush := func() {
		if len(segment) == 0 {
			return
		}
		closed := a.Base.Tail(segment[0]) == a.Base.Head(segment[len(segment)-1])
		uniq := graph.NewEdgeSet(segment...)
		if closed && uniq.Len() == len(segment) {
			segCycles := flow.SplitClosedWalk(a.Base, segment)
			segSeen := graph.NewEdgeSet()
			segDisjoint := true
			var c, d int64
			for _, sc := range segCycles {
				c += rg.CycleCost(sc)  //lint:allow weightovf cycle sums over MaxWeight-capped edges; ≤ m·MaxWeight
				d += rg.CycleDelay(sc) //lint:allow weightovf cycle sums over MaxWeight-capped edges; ≤ m·MaxWeight
				for _, id := range sc.Edges {
					if segSeen.Has(id) {
						segDisjoint = false
					}
					segSeen.Add(id)
				}
			}
			if segDisjoint && len(segCycles) > 1 {
				consider(Candidate{Cycles: segCycles, Cost: c, Delay: d})
			}
		}
		segment = segment[:0]
	}
	for _, id := range hEdges {
		if a.ResEdge(id) < 0 {
			flush()
			continue
		}
		segment = append(segment, a.ResEdge(id))
	}
	flush()
	return out
}
