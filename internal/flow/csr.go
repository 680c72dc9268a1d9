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
// graph; a solver instance hoists the potential, label, parent and queue
// arrays out of those calls, so a call allocates only its UnitFlow result.
//
// Which of several optimal flows it returns is fixed by a written rule,
// not by the queue. Round 1 is a Dijkstra from s; every later round is a
// balanced bidirectional Dijkstra, one search from s over the residual
// arcs and one from t over the same arcs reversed, each popping vertices in
// (reduced label, vertex ID) order (pq.Heap's pop order) and the side with
// fewer pops stepping next. A forward step relaxes a vertex's unused OutRow
// edges and then its used InRow edges (cancelling arcs), a backward step
// its unused InRow edges and then its used OutRow edges, all ID-ascending;
// the second scan of each runs only where flow passes through the vertex.
// MinCostKFlow states the meeting, stop and repair rules, and DESIGN.md §7
// proves them. A linear-scan kernel of the same rule is kept in this
// package's tests as the specification. Not safe for concurrent use; one
// solver per goroutine.
type KFlowSolver struct {
	c      *graph.CSR
	inFlow []bool
	// pot, distF and distB share one []int64 slab, and parF and parB one
	// []graph.EdgeID slab: a vertex's potential, its labels from s and
	// from t, and the edges those labels came by.
	pot, distF, distB []int64
	parF, parB        []graph.EdgeID
	mark              []uint8 // poppedF | poppedB bits, cleared between rounds
	hf, hb            pq.Heap // the queues from s and from t
	fr                *rec.Recorder
}

// A vertex's mark bits: which searches of the current round popped it.
const (
	poppedF uint8 = 1 << iota // popped by the search from s
	poppedB                   // popped by the search from t
)

// SetRecorder attaches a flight recorder; each augmentation round then
// records one augment event (round index, s→t reduced distance μ, and the
// pops of its searches from s and from t). Nil (the default) records
// nothing and costs one dead branch per round.
func (kf *KFlowSolver) SetRecorder(r *rec.Recorder) { kf.fr = r }

// NewKFlowSolver returns a solver bound to the view. The view must not be
// flipped while the solver is in use (problem graphs never are; the solver
// checks and panics to keep the contract loud).
func NewKFlowSolver(c *graph.CSR) *KFlowSolver {
	n := c.NumNodes()
	labels := make([]int64, 3*n)
	parents := make([]graph.EdgeID, 2*n)
	kf := &KFlowSolver{
		c:      c,
		inFlow: make([]bool, c.NumEdges()),
		pot:    labels[:n:n],
		distF:  labels[n : 2*n : 2*n],
		distB:  labels[2*n:],
		parF:   parents[:n:n],
		parB:   parents[n:],
		mark:   make([]uint8, n),
	}
	kf.hf.Grow(n)
	kf.hb.Grow(n)
	return kf
}

// MinCostKFlow computes a minimum-weight integral s→t flow of value k under
// unit capacities over the solver's CSR view, by successive shortest paths
// with Johnson potentials. Weights must be nonnegative. Potentials start at
// zero, so round 1 is a plain Dijkstra from s; in it t counts as popped
// from t, with label 0.
//
// Rounds 2..k search from both ends. s starts in the forward queue and t in
// the backward one, both at label 0, and each step pops from the side with
// fewer pops so far, ties going forward. The backward side relaxes the
// residual arcs into the popped vertex v, with v's label plus the arc's
// reduced weight as the label of the arc's tail. Both sides skip vertices
// they have popped and relax only on strict improvement. Whenever a label
// improves at a vertex x that has a label from the other side, the sum of
// the two is a meeting; the least so far, found first, is μ at x. Right
// after each pop, before its relaxations, the round stops if
// lastF + lastB ≥ μ, the last popped labels of the two sides; then μ is the
// residual s→t distance, and the round augments along x's forward parent
// chain back to s and its backward chain on to t, a simple path. A queue
// that empties first means t is unreachable: μ = ∞ then, since popping t
// forward or s backward always stops the round.
//
// The repair: with cap = min(lastF, μ), each vertex v gets
// f(v) = max(min(cap, distF[v]), μ − distB[v]), taking the first term's
// distF only where the forward side popped v and the second term only
// where the backward side did, and pot[v] += f(v) − cap. So a vertex
// neither side popped keeps its potential. f is the max of two feasible
// shifts, capped distances from s and μ minus distances to t, and it is
// exact on the path, so reduced weights stay nonnegative and the reversed
// path arcs get reduced weight 0 (DESIGN.md §7 has the proofs).
//
// A popped vertex scans its second row for cancelling arcs only where flow
// passes through it: the forward side reads its InRow only when one of its
// OutRow edges carries flow, and the backward side its OutRow only when
// one of its InRow edges does. That skips no arc: at a vertex other than s
// and t, flow conservation under unit capacities makes an edge into it
// carry flow iff an edge out of it does; and t is never relaxed forward,
// nor s backward, since popping either stops the round.
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
	clear(inFlow)
	pot, distF, distB := kf.pot[:n], kf.distF[:n], kf.distB[:n]
	parF, parB, mark := kf.parF[:n], kf.parB[:n], kf.mark[:n]
	hf, hb := &kf.hf, &kf.hb
	clear(pot)
	clear(mark)
	for v := range distF {
		distF[v], distB[v] = shortest.Inf, shortest.Inf
	}
	used := 0 // edges carrying flow
	for it := 0; it < k; it++ {
		both := it > 0 // round 1 searches from s only
		hf.Reset()
		hb.Reset()
		distF[s], distB[t] = 0, 0
		hf.Push(int(s), 0)
		if both {
			hb.Push(int(t), 0)
		} else {
			mark[t] = poppedB
		}
		mu, meet := int64(shortest.Inf), graph.NodeID(-1)
		if s == t { // the seeds' labels meet
			mu, meet = 0, s
		}
		var lastF, lastB, popsF, popsB int64
		for hf.Len() > 0 && (!both || hb.Len() > 0) {
			if c.Poll() {
				recordFlow(m, rounds, relaxed, false)
				return UnitFlow{}, cancel.ErrCancelled
			}
			if !both || popsF <= popsB {
				ui, du := hf.Pop()
				u := graph.NodeID(ui)
				mark[u] |= poppedF
				popsF++
				lastF = du
				if lastF+lastB >= mu {
					break
				}
				pu := pot[u]
				carries := false
				for _, id := range cs.OutRow(u) {
					if inFlow[id] {
						carries = true
						continue
					}
					to := cs.Head(id)
					if mark[to]&poppedF != 0 {
						continue
					}
					rw := lw.Of(cs.Cost(id), cs.Delay(id)) + pu - pot[to]
					if rw < 0 {
						//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
						panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
					}
					if nd := du + rw; nd < distF[to] {
						distF[to], parF[to] = nd, id
						hf.Push(int(to), nd)
						relaxed++
						if db := distB[to]; db < mu && nd+db < mu {
							mu, meet = nd+db, to
						}
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
					if mark[to]&poppedF != 0 {
						continue
					}
					rw := -lw.Of(cs.Cost(id), cs.Delay(id)) + pu - pot[to]
					if rw < 0 {
						//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
						panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
					}
					if nd := du + rw; nd < distF[to] {
						distF[to], parF[to] = nd, id
						hf.Push(int(to), nd)
						relaxed++
						if db := distB[to]; db < mu && nd+db < mu {
							mu, meet = nd+db, to
						}
					}
				}
				continue
			}
			vi, dv := hb.Pop()
			v := graph.NodeID(vi)
			mark[v] |= poppedB
			popsB++
			lastB = dv
			if lastF+lastB >= mu {
				break
			}
			pv := pot[v]
			carries := false
			for _, id := range cs.InRow(v) {
				if inFlow[id] {
					carries = true
					continue
				}
				from := cs.Tail(id)
				if mark[from]&poppedB != 0 {
					continue
				}
				rw := lw.Of(cs.Cost(id), cs.Delay(id)) + pot[from] - pv
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := dv + rw; nd < distB[from] {
					distB[from], parB[from] = nd, id
					hb.Push(int(from), nd)
					relaxed++
					if df := distF[from]; df < mu && nd+df < mu {
						mu, meet = nd+df, from
					}
				}
			}
			if !carries {
				continue // no flow leaves v either (see the doc comment)
			}
			for _, id := range cs.OutRow(v) {
				if !inFlow[id] {
					continue
				}
				from := cs.Head(id)
				if mark[from]&poppedB != 0 {
					continue
				}
				rw := -lw.Of(cs.Cost(id), cs.Delay(id)) + pot[from] - pv
				if rw < 0 {
					//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
					panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
				}
				if nd := dv + rw; nd < distB[from] {
					distB[from], parB[from] = nd, id
					hb.Push(int(from), nd)
					relaxed++
					if df := distF[from]; df < mu && nd+df < mu {
						mu, meet = nd+df, from
					}
				}
			}
		}
		if mu == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		kf.fr.Record(rec.KindAugment, rounds, mu, popsF+popsB, 0)
		used += kf.augment(inFlow, meet, s, t)
		// The repair, fused with the next round's reset.
		cp := min(lastF, mu)
		for v, mk := range mark {
			if mk != 0 {
				f := cp
				if mk&poppedF != 0 {
					f = min(f, distF[v])
				}
				if mk&poppedB != 0 {
					f = max(f, mu-distB[v])
				}
				pot[v] += f - cp
				mark[v] = 0
			}
			distF[v], distB[v] = shortest.Inf, shortest.Inf
		}
	}

	set := graph.NewEdgeSetSize(used)
	for id, u := range inFlow {
		if u {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}

// augment flips flow along meet's forward parent chain back to s and its
// backward parent chain on to t, and returns the change in the number of
// edges carrying flow. A parent edge that carries flow was relaxed as a
// cancelling arc, so the walk reads each arc's direction from inFlow just
// before toggling it.
//
//krsp:terminates(the two parent chains are the halves of a simple s→t path, ≤ n edges)
func (kf *KFlowSolver) augment(inFlow []bool, meet, s, t graph.NodeID) int {
	cs, delta := kf.c, 0
	for v := meet; v != s; {
		id := kf.parF[v]
		if inFlow[id] {
			v, delta = cs.Head(id), delta-1
		} else {
			v, delta = cs.Tail(id), delta+1
		}
		inFlow[id] = !inFlow[id]
	}
	for v := meet; v != t; {
		id := kf.parB[v]
		if inFlow[id] {
			v, delta = cs.Tail(id), delta-1
		} else {
			v, delta = cs.Head(id), delta+1
		}
		inFlow[id] = !inFlow[id]
	}
	return delta
}
