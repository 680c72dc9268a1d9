// Package auxgraph implements Algorithm 2 of the paper: the layered
// auxiliary graphs H_v^+(B) and H_v^-(B) over a residual graph G̃, in which
// accumulated residual COST is encoded as a layer index while residual
// DELAY remains the edge weight. Cycles through v in G̃ with cost in
// [0, B] (resp. [−B, 0)) appear as cycles in H_v^+(B) (resp. H_v^-(B))
// through the layer-0 (resp. layer-B) copy of v (Lemma 15).
//
// A third kind, TwoSided, tracks accumulated cost over the full range
// [−B, +B]. It subsumes both one-sided graphs and additionally represents
// cycles whose prefix cost sums leave [0, B] even though their totals stay
// inside — the one-sided constructions only capture a cycle when some
// rotation keeps prefix sums in range, which is the (implicit) regime of
// the paper's Lemma 15. The primary bicameral search uses TwoSided; the
// one-sided graphs remain for paper fidelity and the LP (6) engine.
//
// The residual graph and every H are graph.CSR views: H is built straight
// into edge arrays and packed, with no intermediate Digraph.
package auxgraph

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
)

// Kind selects the auxiliary-graph flavor.
type Kind int

const (
	// Plus is H_v^+(B): layers track accumulated cost in [0, B]; wrap edges
	// v^i → v^0 close cycles of total cost +i.
	Plus Kind = iota
	// Minus is H_v^-(B): same layer rules, wrap edges v^i → v^B close
	// cycles of total cost i−B ∈ [−B, 0).
	Minus
	// TwoSided tracks accumulated cost in [−B, +B] with wrap edges
	// v^b → v^0 for every b ≠ 0.
	TwoSided
)

func (k Kind) String() string {
	switch k {
	case Plus:
		return "H+"
	case Minus:
		return "H-"
	case TwoSided:
		return "H±"
	}
	return "?"
}

// Aux is a constructed auxiliary graph with projection bookkeeping.
type Aux struct {
	// H is the layered graph (never flipped). Edge delays are residual
	// delays; edge costs carry the residual cost for bookkeeping (wrap
	// edges are (0,0)).
	H *graph.CSR
	// Base is the residual graph the layers were built over.
	Base *graph.CSR
	// V is the anchor vertex whose copies carry wrap edges.
	V graph.NodeID
	// B is the cost budget.
	B int64
	// Kind records the flavor.
	Kind Kind

	resEdge []graph.EdgeID // per H edge: base edge ID, or -1 for wrap edges
	lo      int64          // lowest layer value (0 or −B)
	layers  int64          // number of layers
}

// Build constructs the auxiliary graph of the given kind over the residual
// view base, anchored at v. B must be ≥ 1.
func Build(base *graph.CSR, v graph.NodeID, bound int64, kind Kind) *Aux {
	return build(base, []graph.NodeID{v}, bound, kind)
}

// BuildShared constructs a TwoSided layered graph with wrap edges at every
// anchor vertex, so a single negative-cycle detection covers all anchors at
// once (the fast path of the bicameral search). Projection semantics are
// identical to a single-anchor TwoSided graph; a.V is set to the first
// anchor for display only.
func BuildShared(base *graph.CSR, anchors []graph.NodeID, bound int64) *Aux {
	if len(anchors) == 0 {
		//lint:allow nopanic callers derive anchors from ReversedSeeds and check emptiness first
		panic("auxgraph: no anchors")
	}
	return build(base, anchors, bound, TwoSided)
}

// build lays out H: first the layered copies of every base edge (base edges
// in ID order, layers ascending), then the wrap edges of every anchor from
// each layer but the start one back to the start layer. Edge IDs follow
// that order, and PackCSR keeps every row ID-ascending.
func build(base *graph.CSR, anchors []graph.NodeID, bound int64, kind Kind) *Aux {
	if bound < 1 {
		//lint:allow nopanic B is solver-computed and ≥ 1 by construction; programmer error
		panic(fmt.Sprintf("auxgraph: budget %d < 1", bound))
	}
	a := &Aux{Base: base, V: anchors[0], B: bound, Kind: kind}
	switch kind {
	case Plus, Minus:
		a.lo, a.layers = 0, bound+1
	case TwoSided:
		a.lo, a.layers = -bound, 2*bound+1
	default:
		//lint:allow nopanic exhaustive Kind switch; unreachable
		panic("auxgraph: unknown kind")
	}
	// Size H exactly: a base edge of cost c has a copy in every layer l with
	// both l and l+c in range, i.e. max(0, layers−|c|) copies.
	m := base.NumEdges()
	size := int64(len(anchors)) * (a.layers - 1)
	for i := 0; i < m; i++ {
		cost := base.Cost(graph.EdgeID(i))
		if cost < 0 {
			cost = -cost
		}
		if cost < a.layers {
			size += a.layers - cost //lint:allow weightovf 0 ≤ cost < layers; size counts H's edges, ≤ (m+|anchors|)·layers
		}
	}
	from := make([]graph.NodeID, 0, size)
	to := make([]graph.NodeID, 0, size)
	costs := make([]int64, 0, size)
	delays := make([]int64, 0, size)
	a.resEdge = make([]graph.EdgeID, 0, size)
	add := func(u, v graph.NodeID, c, d int64, res graph.EdgeID) {
		from, to = append(from, u), append(to, v)
		costs, delays = append(costs, c), append(delays, d)
		a.resEdge = append(a.resEdge, res)
	}
	for i := 0; i < m; i++ {
		id := graph.EdgeID(i)
		cost := base.Cost(id)
		for l := a.lo; l <= a.hi(); l++ {
			nl := l + cost //lint:allow weightovf layer index: |l| ≤ B and cost is MaxWeight-capped
			if nl < a.lo || nl > a.hi() {
				continue
			}
			add(a.node(base.Tail(id), l), a.node(base.Head(id), nl), cost, base.Delay(id), id)
		}
	}
	start := a.StartLayer()
	for _, v := range anchors {
		for l := a.lo; l <= a.hi(); l++ {
			if l != start {
				add(a.node(v, l), a.node(v, start), 0, 0, -1)
			}
		}
	}
	a.H = graph.PackCSR(int(a.layers)*base.NumNodes(), from, to, costs, delays)
	return a
}

func (a *Aux) hi() int64 { return a.lo + a.layers - 1 }

// node maps (base vertex, layer value) to the H vertex.
func (a *Aux) node(u graph.NodeID, layer int64) graph.NodeID {
	return graph.NodeID((layer-a.lo)*int64(a.Base.NumNodes()) + int64(u))
}

// LayerNode exposes the (vertex, layer) → H-vertex mapping; ok=false if the
// layer is out of range.
func (a *Aux) LayerNode(u graph.NodeID, layer int64) (graph.NodeID, bool) {
	if layer < a.lo || layer > a.hi() {
		return 0, false
	}
	return a.node(u, layer), true
}

// Start returns the H vertex at which cycle searches are rooted: v^0 for
// Plus and TwoSided, v^B for Minus.
func (a *Aux) Start() graph.NodeID {
	if a.Kind == Minus {
		return a.node(a.V, a.B)
	}
	return a.node(a.V, 0)
}

// StartLayer returns the layer value of Start.
func (a *Aux) StartLayer() int64 {
	if a.Kind == Minus {
		return a.B
	}
	return 0
}

// ResEdge maps an H edge to its base (residual) edge, or -1 for wraps.
func (a *Aux) ResEdge(id graph.EdgeID) graph.EdgeID { return a.resEdge[id] }

// ProjectWalk maps a closed walk in H (edge ID sequence) down to the base
// graph, dropping wrap edges, and splits the result into vertex-simple base
// cycles. By Lemma 15, the summed cost/delay of the returned cycles equal
// the walk's accumulated residual cost/delay.
func (a *Aux) ProjectWalk(edges []graph.EdgeID) []graph.Cycle {
	var baseWalk []graph.EdgeID
	for _, id := range edges {
		if base := a.resEdge[id]; base >= 0 {
			baseWalk = append(baseWalk, base)
		}
	}
	if len(baseWalk) == 0 {
		return nil
	}
	return flow.SplitClosedWalk(a.Base, baseWalk)
}

// Project is ProjectWalk for a graph.Cycle in H.
func (a *Aux) Project(c graph.Cycle) []graph.Cycle { return a.ProjectWalk(c.Edges) }
