package flow

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// This file keeps two min-cost k-flow kernels over the Digraph that
// KFlowSolver is tested against:
//
//   - minCostKFlow, the kernel MinCostKFlow ran before it became a wrapper
//     over KFlowSolver, verbatim: successive shortest paths over the
//     adjacency lists with closure weights, a full potential Dijkstra, then
//     every round a full Dijkstra followed by the O(n) potential update. It
//     is the optimum oracle of TestKFlowSolverMatchesDigraph.
//   - specMinCostKFlow, KFlowSolver's rule written out with no queues: each
//     side pops its unpopped vertex with the least (reduced label, vertex
//     ID) by linear scan, under the same alternation, meeting, stop and
//     repair rules, and every round ends with the invariants the rule
//     promises checked. It is the specification of
//     TestKFlowSolverMatchesSpec.

// arc is a residual-graph step recorded in minCostKFlow's parent array:
// push one unit on an unused edge (fwd) or cancel a unit on a used one.
type arc struct {
	edge graph.EdgeID
	fwd  bool // true: push on unused edge; false: cancel used edge
}

// augmentAlong flips flow along the parent chain from t back to s, pushing
// on forward arcs and cancelling on backward ones.
//
//krsp:terminates(the parent array encodes a simple chain from t to s, ≤ n edges)
func augmentAlong(g *graph.Digraph, parent []arc, inFlow []bool, s, t graph.NodeID) {
	v := t
	for v != s {
		a := parent[v]
		e := g.Edge(a.edge)
		if a.fwd {
			inFlow[a.edge] = true
			v = e.From
		} else {
			inFlow[a.edge] = false
			v = e.To
		}
	}
}

// dijkstra returns the distances from s under w over the adjacency lists
// (shortest.Inf where unreachable); every weight must be nonnegative.
func dijkstra(g *graph.Digraph, s graph.NodeID, w func(graph.Edge) int64) []int64 {
	dist := make([]int64, g.NumNodes())
	done := make([]bool, g.NumNodes())
	for v := range dist {
		dist[v] = shortest.Inf
	}
	dist[s] = 0
	h := pq.New(g.NumNodes())
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		done[u] = true
		for _, id := range g.Out(u) {
			e := g.Edge(id)
			if nd := du + w(e); !done[e.To] && nd < dist[e.To] {
				dist[e.To] = nd
				h.Push(int(e.To), nd)
			}
		}
	}
	return dist
}

func minCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, w func(graph.Edge) int64, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	var rounds, relaxed int64
	n := g.NumNodes()
	inFlow := make([]bool, g.NumEdges())
	// Potentials initialized by a plain Dijkstra (weights nonnegative); the
	// returned array doubles as the (mutated) potential array.
	pot := dijkstra(g, s, w)

	// Scratch shared by the k augmentation rounds: allocating it per round
	// dominated small-instance solves (Phase1 calls this in a Lagrangian
	// loop, so the savings multiply).
	dist := make([]int64, n)
	parent := make([]arc, n)
	settled := make([]bool, n)
	h := pq.New(n)

	for it := 0; it < k; it++ {
		// Dijkstra over the residual structure with reduced weights.
		for v := range dist {
			dist[v] = shortest.Inf
			parent[v] = arc{edge: -1}
			settled[v] = false
		}
		if pot[s] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		dist[s] = 0
		h.Reset()
		h.Push(int(s), 0)
		for h.Len() > 0 {
			if c.Poll() {
				recordFlow(m, rounds, relaxed, false)
				return UnitFlow{}, cancel.ErrCancelled
			}
			ui, du := h.Pop()
			u := graph.NodeID(ui)
			if settled[u] {
				continue
			}
			settled[u] = true
			// relax reports whether it improved dist[to]; the call sites
			// count improvements into a plain local (capturing a counter in
			// the closure could force it to the heap, which bench-guard
			// would flag).
			relax := func(to graph.NodeID, wt int64, a arc) bool {
				if settled[to] || pot[to] == shortest.Inf {
					return false
				}
				rw := wt + pot[u] - pot[to]
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := du + rw; nd < dist[to] {
					dist[to] = nd
					parent[to] = a
					h.Push(int(to), nd)
					return true
				}
				return false
			}
			for _, id := range g.Out(u) {
				e := g.Edge(id)
				if !inFlow[id] && relax(e.To, w(e), arc{edge: id, fwd: true}) {
					relaxed++
				}
			}
			for _, id := range g.In(u) {
				e := g.Edge(id)
				if inFlow[id] && relax(e.From, -w(e), arc{edge: id, fwd: false}) {
					relaxed++
				}
			}
		}
		if dist[t] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		augmentAlong(g, parent, inFlow, s, t)
		// Update potentials: pot'[v] = pot[v] + dist_reduced[v]; vertices
		// unreached this round become unreachable for future rounds too
		// under reduced weights, mark Inf.
		for v := range pot {
			if pot[v] == shortest.Inf {
				continue
			}
			if dist[v] == shortest.Inf {
				pot[v] = shortest.Inf
			} else {
				pot[v] += dist[v] //lint:allow weightovf potentials accumulate <=k reduced path sums, each under n*MaxWeight < 2^47
			}
		}
	}

	set := graph.NewEdgeSet()
	for id, used := range inFlow {
		if used {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}

// specMinCostKFlow computes the min-cost k-flow KFlowSolver must return,
// edge for edge, and records the same augment events into r (nil records
// nothing). Potentials start at zero. Round 1 searches from s only, with t
// counted as popped from t at label 0; later rounds search from s and t,
// the side with fewer pops stepping next (ties forward). A step pops the
// side's unpopped labelled vertex with the least (label, vertex ID) by
// linear scan, stops the round if lastF + lastB ≥ μ, and otherwise relaxes
// the residual arcs out of the vertex (forward) or into it (backward),
// unused edges first, then used ones, each in ascending edge-ID order,
// skipping vertices the side has popped, on strict improvement only. An
// improved label at a vertex labelled by the other side offers a meeting,
// taken if strictly below μ. A side with nothing left to pop ends the
// round infeasible. The round augments along the meeting vertex's two
// parent chains and repairs with f(v) = max(min(cap, distF[v]),
// μ − distB[v]), cap = min(lastF, μ), each term taken where its side
// popped v, adding f(v) − cap to every potential.
//
// After each round it panics unless the augmenting walk repeated no vertex,
// the flow is conserved (k units out of s and into t after k rounds) and
// every residual arc has a nonnegative reduced weight.
func specMinCostKFlow(g *graph.Digraph, s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics, r *rec.Recorder) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	const inf = shortest.Inf
	var rounds, relaxed int64
	n := g.NumNodes()
	inFlow := make([]bool, g.NumEdges())
	pot := make([]int64, n)
	w := func(id graph.EdgeID) int64 { e := g.Edge(id); return lw.Of(e.Cost, e.Delay) }
	for it := 0; it < k; it++ {
		both := it > 0
		distF, distB := make([]int64, n), make([]int64, n)
		parF, parB := make([]graph.EdgeID, n), make([]graph.EdgeID, n)
		popF, popB := make([]bool, n), make([]bool, n)
		for v := range distF {
			distF[v], distB[v], parF[v], parB[v] = inf, inf, -1, -1
		}
		distF[s], distB[t] = 0, 0
		popB[t] = !both
		mu, meet := int64(inf), graph.NodeID(-1)
		if s == t {
			mu, meet = 0, s
		}
		least := func(dist []int64, popped []bool) graph.NodeID {
			u := graph.NodeID(-1)
			for v := range dist {
				if !popped[v] && dist[v] != inf && (u < 0 || dist[v] < dist[u]) {
					u = graph.NodeID(v)
				}
			}
			return u
		}
		// relax offers x the label du + rw on one side, over edge id.
		relax := func(dist, other []int64, par []graph.EdgeID, popped []bool, x graph.NodeID, du, rw int64, id graph.EdgeID) {
			if popped[x] {
				return
			}
			if rw < 0 {
				panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
			}
			if d := du + rw; d < dist[x] {
				dist[x], par[x] = d, id
				relaxed++
				if other[x] != inf && d+other[x] < mu {
					mu, meet = d+other[x], x
				}
			}
		}
		var lastF, lastB, popsF, popsB int64
		for {
			uF, uB := least(distF, popF), least(distB, popB)
			if uF < 0 || both && uB < 0 {
				break
			}
			if !both || popsF <= popsB {
				u := uF
				popF[u], lastF = true, distF[u]
				popsF++
				if lastF+lastB >= mu {
					break
				}
				for _, id := range g.Out(u) {
					if e := g.Edge(id); !inFlow[id] {
						relax(distF, distB, parF, popF, e.To, distF[u], w(id)+pot[u]-pot[e.To], id)
					}
				}
				for _, id := range g.In(u) {
					if e := g.Edge(id); inFlow[id] {
						relax(distF, distB, parF, popF, e.From, distF[u], -w(id)+pot[u]-pot[e.From], id)
					}
				}
				continue
			}
			v := uB
			popB[v], lastB = true, distB[v]
			popsB++
			if lastF+lastB >= mu {
				break
			}
			for _, id := range g.In(v) {
				if e := g.Edge(id); !inFlow[id] {
					relax(distB, distF, parB, popB, e.From, distB[v], w(id)+pot[e.From]-pot[v], id)
				}
			}
			for _, id := range g.Out(v) {
				if e := g.Edge(id); inFlow[id] {
					relax(distB, distF, parB, popB, e.To, distB[v], -w(id)+pot[e.To]-pot[v], id)
				}
			}
		}
		if mu == inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		r.Record(rec.KindAugment, rounds, mu, popsF+popsB, 0)

		onWalk := make([]bool, n)
		visit := func(v graph.NodeID) {
			if onWalk[v] {
				panic(fmt.Sprintf("flow spec: round %d: augmenting walk repeats vertex %d", rounds, v))
			}
			onWalk[v] = true
		}
		visit(meet)
		for v := meet; v != s; visit(v) {
			id := parF[v]
			if e := g.Edge(id); inFlow[id] {
				v = e.To
			} else {
				v = e.From
			}
			inFlow[id] = !inFlow[id]
		}
		for v := meet; v != t; visit(v) {
			id := parB[v]
			if e := g.Edge(id); inFlow[id] {
				v = e.From
			} else {
				v = e.To
			}
			inFlow[id] = !inFlow[id]
		}

		cp := min(lastF, mu)
		for v := range pot {
			f := cp
			if popF[v] {
				f = min(f, distF[v])
			}
			if popB[v] {
				f = max(f, mu-distB[v])
			}
			pot[v] += f - cp
		}
		checkRound(g, s, t, rounds, lw, inFlow, pot)
	}

	set := graph.NewEdgeSet()
	for id, used := range inFlow {
		if used {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}

// checkRound panics unless the flow after round rounds is conserved, with
// rounds units leaving s and entering t, and every residual arc has a
// nonnegative reduced weight under pot.
func checkRound(g *graph.Digraph, s, t graph.NodeID, rounds int64, lw shortest.LinWeight, inFlow []bool, pot []int64) {
	excess := make([]int64, g.NumNodes()) // flow in minus flow out
	for id, used := range inFlow {
		e := g.Edge(graph.EdgeID(id))
		wt := lw.Of(e.Cost, e.Delay)
		rw := wt + pot[e.From] - pot[e.To] // the unused edge's arc From→To
		if used {
			excess[e.To]++
			excess[e.From]--
			rw = -wt + pot[e.To] - pot[e.From] // the cancelling arc To→From
		}
		if rw < 0 {
			panic(fmt.Sprintf("flow spec: round %d: edge %d (used %v) has reduced weight %d", rounds, id, used, rw))
		}
	}
	for v, x := range excess {
		want := int64(0)
		switch {
		case s == t:
		case graph.NodeID(v) == s:
			want = -rounds
		case graph.NodeID(v) == t:
			want = rounds
		}
		if x != want {
			panic(fmt.Sprintf("flow spec: round %d: vertex %d has flow excess %d, want %d", rounds, v, x, want))
		}
	}
}
