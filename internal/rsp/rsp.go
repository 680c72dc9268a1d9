// Package rsp implements the single (k=1) Restricted Shortest Path
// problem: min-cost s→t path with delay ≤ D. It is a baseline (the paper's
// citations [7, 17]) solved exactly by ExactDP, a pseudo-polynomial
// O((D+1)·m·log) Dijkstra over the delay-layered graph; the greedy
// sequential kRSP baseline routes one such path at a time.
package rsp

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// ErrInfeasible reports that no s→t path satisfies the delay bound.
var ErrInfeasible = errors.New("rsp: no path within delay bound")

// ErrTooLarge reports that the delay-layered graph of a query would have
// more than MaxLayeredStates states.
var ErrTooLarge = errors.New("rsp: delay-layered graph too large")

// MaxLayeredStates caps the (bound+1)·n states of ExactDP's layered graph.
// Each state costs about 41 bytes (distance, parent edge, parent layer,
// settled flag and a queue slot), so 2^24 states is about 690 MB, the most
// one baseline query should take; it is also far below math.MaxInt32, the
// queue's item universe. The cap admits every query of the cmd/krsp
// goldens (at most 2,624 states), the krspexp experiments (1,488) and the
// greedy baseline on `krspgen -n 30 -k 2` instances of all five
// topologies, whose largest, a 30×30 grid with bound 527, needs 475,200
// (under 2^19).
const MaxLayeredStates = 1 << 24

// Result is a solved RSP query.
type Result struct {
	Path  graph.Path
	Cost  int64
	Delay int64
}

// layered is the result of runLayered's Dijkstra over the implicit layered
// graph whose nodes are (v, b) with b = accumulated delay ≤ cap: layer
// increments are edge delays and path lengths edge costs (both must be
// ≥ 0). dist[b][v] is the min cost of an s→v walk consuming exactly delay
// b; parent pointers allow path reconstruction.
type layered struct {
	cap    int64
	n      int
	dist   []int64        // index b*n + v
	parent []graph.EdgeID // edge into (v,b); -1 if root/unreached
	prevB  []int64        // layer of the parent state
}

func (l *layered) at(b int64, v graph.NodeID) int { return int(b)*l.n + int(v) }

func runLayered(g *graph.Digraph, s graph.NodeID, cap int64) *layered {
	n := g.NumNodes()
	size := (cap + 1) * int64(n) // ExactDP has capped it at MaxLayeredStates
	l := &layered{cap: cap, n: n,
		dist:   make([]int64, size),
		parent: make([]graph.EdgeID, size),
		prevB:  make([]int64, size),
	}
	for i := range l.dist {
		l.dist[i] = shortest.Inf
		l.parent[i] = -1
	}
	start := l.at(0, s)
	l.dist[start] = 0
	h := pq.New(int(size))
	h.Push(start, 0)
	settled := make([]bool, size)
	for h.Len() > 0 {
		idx, du := h.Pop()
		if settled[idx] {
			continue
		}
		settled[idx] = true
		b := int64(idx) / int64(n)
		v := graph.NodeID(int64(idx) % int64(n))
		for _, id := range g.Out(v) {
			e := g.Edge(id)
			lw, dw := e.Delay, e.Cost
			if lw < 0 || dw < 0 {
				//lint:allow nopanic validated instances carry nonnegative costs and delays
				panic(fmt.Sprintf("rsp: negative layered weights (%d,%d)", lw, dw))
			}
			nb := b + lw
			if nb > cap {
				continue
			}
			ni := l.at(nb, e.To)
			if settled[ni] {
				continue
			}
			if nd := du + dw; nd < l.dist[ni] {
				l.dist[ni] = nd
				l.parent[ni] = id
				l.prevB[ni] = b
				h.Push(ni, nd)
			}
		}
	}
	return l
}

// best returns the minimum dist over all layers b ≤ cap at v, with the
// layer achieving it.
func (l *layered) best(v graph.NodeID) (bestB int64, bestD int64) {
	bestB, bestD = -1, shortest.Inf
	for b := int64(0); b <= l.cap; b++ {
		if d := l.dist[l.at(b, v)]; d < bestD {
			bestD = d
			bestB = b
		}
	}
	return bestB, bestD
}

// pathTo reconstructs the path into state (v, b).
func (l *layered) pathTo(g *graph.Digraph, v graph.NodeID, b int64) graph.Path {
	var rev []graph.EdgeID
	for {
		idx := l.at(b, v)
		id := l.parent[idx]
		if id < 0 {
			break
		}
		rev = append(rev, id)
		b = l.prevB[idx]
		v = g.Edge(id).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return graph.Path{Edges: rev}
}

// ExactDP solves RSP exactly in O((D+1)·m·log((D+1)·n)) time via Dijkstra
// over the delay-layered graph. Pseudo-polynomial in D: a query whose
// layered graph would exceed MaxLayeredStates states returns ErrTooLarge
// before anything is allocated.
func ExactDP(g *graph.Digraph, s, t graph.NodeID, bound int64) (Result, error) {
	if bound < 0 {
		return Result{}, ErrInfeasible
	}
	n := g.NumNodes()
	// bound ≤ math.MaxInt64, so bound+1 fits a uint64 and the 128-bit
	// product cannot wrap.
	if hi, size := bits.Mul64(uint64(bound)+1, uint64(n)); hi != 0 || size > MaxLayeredStates {
		return Result{}, fmt.Errorf("%w: bound %d on %d nodes needs (bound+1)·n > %d states", ErrTooLarge, bound, n, MaxLayeredStates)
	}
	l := runLayered(g, s, bound)
	b, cost := l.best(t)
	if b < 0 {
		return Result{}, ErrInfeasible
	}
	p := l.pathTo(g, t, b)
	return Result{Path: p, Cost: cost, Delay: p.Delay(g)}, nil
}
