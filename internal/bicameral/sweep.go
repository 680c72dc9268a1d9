package bicameral

import (
	"repro/internal/auxgraph"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// sweepSeeds runs the per-seed TwoSided layered searches at budget b, one
// seed after another on the engine's workspace. Every search counts in
// st.Searches, and candidatesFromWalk adds its candidates and relaxed-cap
// fallback to st. The first seed with a cap-respecting candidate ends the
// sweep with the best of that seed's candidates, chosen by better() in
// discovery order. found=false leaves the caller to escalate the budget;
// once the Canceller has stopped, the remaining seeds are skipped.
//
//krsp:terminates(one relaxation-budgeted search per seed, and the kernel polls the Canceller)
func sweepSeeds(ws *shortest.Workspace, rg *residual.Graph, perSeed []graph.NodeID, b int64, lw shortest.LinWeight, relaxBudget int, p Params, o Options, st *Stats) (Candidate, bool) {
	for _, seed := range perSeed {
		if o.Cancel.Stopped() {
			break
		}
		av := auxgraph.Build(rg.View(), seed, b, auxgraph.TwoSided)
		st.Searches++
		cyc, found, _ := shortest.SPFAAllBoundedCSRInto(ws, av.H, lw, relaxBudget)
		if !found {
			continue
		}
		var best Candidate
		haveBest := false
		for _, c := range candidatesFromWalk(rg, av, cyc.Edges, p, st) {
			if !haveBest || better(c, best, o.Adversarial) {
				best, haveBest = c, true
			}
		}
		if haveBest {
			return best, true
		}
	}
	return Candidate{}, false
}

// enumStepBudget bounds the DFS steps of one enumeration, summed over all
// of its roots.
const enumStepBudget = 400000

// enumScratch is the DFS state an enumeration shares across its roots:
// each root's DFS leaves visited all false and the stack empty.
type enumScratch struct {
	visited []bool
	stack   []graph.EdgeID
}

// rootResult is the outcome of enumerating the vertex-simple cycles rooted
// (by minimum vertex) at one start vertex.
type rootResult struct {
	best       Candidate
	found      bool
	type0      bool // hit a type-0 candidate: enumeration stops here
	exhausted  bool // the step budget ran out or the Canceller stopped
	steps      int
	candidates int
}

// enumerateRoot DFS-enumerates the vertex-simple cycles whose minimum
// vertex is start, classifying each against Definition 10. It stops at the
// first type-0 candidate (non-adversarial), or once it would take more than
// budget steps or a poll sees the Canceller stopped; otherwise it reduces
// candidates with better() in discovery order.
func enumerateRoot(rg *residual.Graph, start graph.NodeID, budget int, p Params, o Options, scr *enumScratch) rootResult {
	g := rg.View()
	var res rootResult
	var dfs func(cur graph.NodeID, cost, delay int64) bool
	dfs = func(cur graph.NodeID, cost, delay int64) bool {
		res.steps++
		if res.steps > budget || o.Cancel.Poll() {
			res.exhausted = true
			return true
		}
		for out := g.Out(cur); ; {
			id, ok := out.Next()
			if !ok {
				break
			}
			to := g.Head(id)
			if to == start {
				c, d := cost+g.Cost(id), delay+g.Delay(id) //lint:allow weightovf DFS path aggregates ≤ n·MaxWeight
				ty := Classify(c, d, p)
				if ty != TypeNone {
					res.candidates++
					cyc := graph.Cycle{Edges: append(append([]graph.EdgeID(nil), scr.stack...), id)}
					cand := Candidate{Cycles: []graph.Cycle{cyc}, Cost: c, Delay: d, Type: ty}
					if !res.found || better(cand, res.best, o.Adversarial) {
						res.best, res.found = cand, true
					}
					if ty == Type0 && !o.Adversarial {
						res.type0 = true
						return true
					}
				}
				continue
			}
			if to < start || scr.visited[to] {
				continue
			}
			scr.visited[to] = true
			scr.stack = append(scr.stack, id)
			stop := dfs(to, cost+g.Cost(id), delay+g.Delay(id)) //lint:allow weightovf DFS path aggregates ≤ n·MaxWeight
			scr.stack = scr.stack[:len(scr.stack)-1]
			scr.visited[to] = false
			if stop {
				return true
			}
		}
		return false
	}
	dfs(start, 0, 0)
	return res
}

// enumerateQualifying enumerates vertex-simple residual cycles rooted at
// their minimum vertex, visiting roots in ascending order under one step
// budget, and classifies each against Definition 10. A type-0 hit ends the
// scan after its root is merged. A root cut short by the budget or by the
// Canceller ends the scan with exhausted=true and contributes nothing: the
// enumeration is then NOT a completeness certificate.
//
//krsp:terminates(every DFS step spends the one enumStepBudget, and each step polls the Canceller)
func enumerateQualifying(rg *residual.Graph, p Params, o Options, st *Stats) (best Candidate, found, exhausted bool) {
	n := rg.View().NumNodes()
	scr := enumScratch{visited: make([]bool, n)}
	remaining := enumStepBudget
	for root := 0; root < n; root++ {
		r := enumerateRoot(rg, graph.NodeID(root), remaining, p, o, &scr)
		if r.exhausted {
			return best, found, true
		}
		remaining -= r.steps
		st.Candidates += r.candidates
		if r.found && (!found || better(r.best, best, o.Adversarial)) {
			best, found = r.best, true
		}
		if r.type0 {
			break
		}
	}
	return best, found, false
}
