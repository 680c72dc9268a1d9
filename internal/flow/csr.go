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
// graph; a solver instance hoists the workspace, potential, distance,
// parent and heap arrays out of those calls, so a call allocates only its
// UnitFlow result.
//
// Augmentation rounds iterate the CSR rows directly (forward arcs from
// OutRow, cancelling arcs from InRow, both ID-ascending), in the order the
// Digraph kernel this replaced walked its adjacency lists, so the flows,
// errors and augmentation counts are the same as that kernel's (a copy is
// kept in this package's tests as the reference). Not safe for concurrent
// use; one solver per goroutine.
type KFlowSolver struct {
	c       *graph.CSR
	ws      *shortest.Workspace
	inFlow  []bool
	pot     []int64
	dist    []int64
	parent  []arc
	settled []bool
	h       *pq.Heap
	fr      *rec.Recorder
}

// SetRecorder attaches a flight recorder; each augmentation round then
// records one augment event (round index, s→t reduced distance). Nil (the
// default) records nothing and costs one dead branch per round.
func (kf *KFlowSolver) SetRecorder(r *rec.Recorder) { kf.fr = r }

// NewKFlowSolver returns a solver bound to the view. The view must not be
// flipped while the solver is in use (problem graphs never are; the solver
// checks and panics to keep the contract loud).
func NewKFlowSolver(c *graph.CSR) *KFlowSolver {
	n := c.NumNodes()
	return &KFlowSolver{
		c:       c,
		ws:      shortest.NewWorkspace(n),
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
// with Johnson potentials. Its first and last rounds stop once t settles,
// so flow.relaxations counts fewer relaxations than a kernel whose every
// round settles the whole graph; flows, errors and augmentation counts are
// unaffected.
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
	// Potentials initialized by a plain Dijkstra (weights nonnegative),
	// copied out of the workspace tree so the per-round searches below can
	// reuse the workspace-independent scratch.
	pot := kf.pot[:n]
	copy(pot, shortest.DijkstraCSRInto(kf.ws, cs, s, lw).Dist)

	dist, parent, settled, h := kf.dist[:n], kf.parent[:n], kf.settled[:n], kf.h
	for it := 0; it < k; it++ {
		// The first and last rounds stop once t settles and skip the
		// potential update. In round 1 the potentials are the initial
		// Dijkstra's exact distances over the flow-free residual (which is
		// the graph itself), so every reachable vertex has reduced distance
		// 0 and every unreachable one already has potential Inf: the update
		// is the identity. Nothing reads the last round's potentials. And
		// t's parent chain is final once t settles, so either round augments
		// the same path it would after settling every vertex.
		edgeRound := it == 0 || it == k-1
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
			if u == t && edgeRound {
				break
			}
			for _, id := range cs.OutRow(u) {
				if inFlow[id] {
					continue
				}
				to := cs.Head(id)
				if settled[to] || pot[to] == shortest.Inf {
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
			for _, id := range cs.InRow(u) {
				if !inFlow[id] {
					continue
				}
				to := cs.Tail(id)
				if settled[to] || pot[to] == shortest.Inf {
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
		if dist[t] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		kf.fr.Record(rec.KindAugment, rounds, dist[t], 0, 0)
		kf.augmentAlong(parent, inFlow, s, t)
		if edgeRound {
			continue
		}
		for v := range pot {
			if pot[v] == shortest.Inf {
				continue
			}
			if dist[v] == shortest.Inf {
				pot[v] = shortest.Inf
			} else {
				pot[v] += dist[v] //lint:allow weightovf the sum is v's residual distance, at most the weighting's edge total; phase-1 probes keep q·Σcost + p·Σdelay ≤ 2^60 (core.checkProbe)
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
