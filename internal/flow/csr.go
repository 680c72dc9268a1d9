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

// KFlowSolver computes min-cost k-flows over a frozen CSR view with
// reusable scratch: it is the package's one min-cost-flow kernel
// (MinCostKFlow wraps a fresh one). Phase 1 calls min-cost flow ~10 times
// per solve (two endpoint flows plus the Lagrangian iterations) on the SAME
// graph; a solver instance hoists the potential, distance, parent and heap
// arrays out of those calls, so a call allocates only its UnitFlow result.
//
// Which of several optimal flows it returns is fixed by a written rule,
// not by the queue: each round's Dijkstra settles vertices in (reduced
// distance, vertex ID) order (pq.Heap's pop order), relaxes a vertex's
// forward arcs from OutRow and then its cancelling arcs from InRow, both
// ID-ascending, and augments along the resulting tree path to t. The InRow
// scan is skipped at a vertex none of whose out-edges carries flow, since
// no flow then enters it either (MinCostKFlow gives the argument). A
// linear-scan kernel of the same rule is kept in this package's tests as
// the specification. Not safe for concurrent use; one solver per
// goroutine.
type KFlowSolver struct {
	c       *graph.CSR
	inFlow  []bool
	pot     []int64
	dist    []int64
	parent  []arc
	settled []bool
	h       *pq.Heap
	fr      *rec.Recorder
}

// SetRecorder attaches a flight recorder; each augmentation round then
// records one augment event (round index, s→t reduced distance, vertices
// settled). Nil (the default) records nothing and costs one dead branch per
// round.
func (kf *KFlowSolver) SetRecorder(r *rec.Recorder) { kf.fr = r }

// NewKFlowSolver returns a solver bound to the view. The view must not be
// flipped while the solver is in use (problem graphs never are; the solver
// checks and panics to keep the contract loud).
func NewKFlowSolver(c *graph.CSR) *KFlowSolver {
	n := c.NumNodes()
	return &KFlowSolver{
		c:       c,
		inFlow:  make([]bool, c.NumEdges()),
		pot:     make([]int64, n),
		dist:    make([]int64, n),
		parent:  make([]arc, n),
		settled: make([]bool, n),
		h:       pq.New(n),
	}
}

// MinCostKFlow computes a minimum-weight integral s→t flow of value k under
// unit capacities over the solver's CSR view, by successive shortest paths
// with Johnson potentials. Weights must be nonnegative. Potentials start at
// zero, so the first round is a plain Dijkstra, and every round stops once
// t settles. Between rounds a capped repair adds min(d(v), d(t)) to each
// potential, where d is the round's reduced distance: d(v) for the settled
// vertices, d(t) for the rest. For every residual arc (u,v),
// min(d(v), d(t)) ≤ min(d(u), d(t)) + rw(u,v), and the arcs the
// augmentation reverses lie on a shortest path, so reduced weights stay
// nonnegative and each round augments along a shortest path.
//
// A settled vertex scans its InRow for cancelling arcs only when one of its
// OutRow edges carries flow. That skips no arc: at a vertex other than s
// and t, flow conservation under unit capacities makes an edge into it
// carry flow iff an edge out of it does; no flow ever enters s, because
// every augmenting path is a tree path that starts at s; and t's rows are
// never scanned, since each round stops when t settles.
func (kf *KFlowSolver) MinCostKFlow(s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	cs := kf.c
	if cs.Mixed() {
		//lint:allow nopanic solver contract: flipping the view mid-use is a programming error, not runtime input
		panic("flow: KFlowSolver used on a flipped CSR view")
	}
	var rounds, relaxed int64
	n := cs.NumNodes()
	inFlow := kf.inFlow[:cs.NumEdges()]
	for i := range inFlow {
		inFlow[i] = false
	}
	pot, dist, parent, settled, h := kf.pot[:n], kf.dist[:n], kf.parent[:n], kf.settled[:n], kf.h
	for v := range pot {
		pot[v] = 0
	}
	for it := 0; it < k; it++ {
		for v := range dist {
			dist[v] = shortest.Inf
			parent[v] = arc{edge: -1}
			settled[v] = false
		}
		dist[s] = 0
		h.Reset()
		h.Push(int(s), 0)
		var reached int64
		for h.Len() > 0 {
			if c.Poll() {
				recordFlow(m, rounds, relaxed, false)
				return UnitFlow{}, cancel.ErrCancelled
			}
			ui, du := h.Pop()
			u := graph.NodeID(ui)
			settled[u] = true
			reached++
			if u == t {
				break
			}
			carries := false
			for _, id := range cs.OutRow(u) {
				if inFlow[id] {
					carries = true
					continue
				}
				to := cs.Head(id)
				if settled[to] {
					continue
				}
				rw := lw.Of(cs.Cost(id), cs.Delay(id)) + pot[u] - pot[to]
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := du + rw; nd < dist[to] {
					dist[to] = nd
					parent[to] = arc{edge: id, fwd: true}
					h.Push(int(to), nd)
					relaxed++
				}
			}
			if !carries {
				continue // no flow enters u either (see the doc comment)
			}
			for _, id := range cs.InRow(u) {
				if !inFlow[id] {
					continue
				}
				to := cs.Tail(id)
				if settled[to] {
					continue
				}
				rw := -lw.Of(cs.Cost(id), cs.Delay(id)) + pot[u] - pot[to]
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := du + rw; nd < dist[to] {
					dist[to] = nd
					parent[to] = arc{edge: id, fwd: false}
					h.Push(int(to), nd)
					relaxed++
				}
			}
		}
		dt := dist[t]
		if dt == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		kf.fr.Record(rec.KindAugment, rounds, dt, reached, 0)
		kf.augmentAlong(parent, inFlow, s, t)
		// The capped repair: settled vertices keep their distance, and the
		// rest, which lie at least dist[t] away, take dist[t].
		for v := range pot {
			dist[v] = min(dist[v], dt)
			pot[v] += dist[v] //lint:allow weightovf pot[v] stays in [0, pot[t]] and pot[t] is the residual s→t distance; phase-1 probes keep q·Σcost + p·Σdelay ≤ 2^60 (core.checkProbe)
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

// augmentAlong flips flow along the parent chain from t back to s,
// pushing on forward arcs and cancelling on backward ones.
//
//krsp:terminates(the parent array encodes a simple chain from t to s, ≤ n edges)
func (kf *KFlowSolver) augmentAlong(parent []arc, inFlow []bool, s, t graph.NodeID) {
	v := t
	for v != s {
		a := parent[v]
		if a.fwd {
			inFlow[a.edge] = true
			v = kf.c.Tail(a.edge)
		} else {
			inFlow[a.edge] = false
			v = kf.c.Head(a.edge)
		}
	}
}
