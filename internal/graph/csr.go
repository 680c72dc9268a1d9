package graph

// CSR is a frozen compressed-sparse-row graph: flat row-start offsets into
// packed adjacency arrays, plus packed per-edge endpoint and weight arrays.
// It is the one graph representation under the solve path — the problem
// graph's view for phase 1, the residual graph G̃, and the layered auxiliary
// graphs H — because the hot kernels (Dijkstra/SPFA/Bellman–Ford sweeps,
// min-cost-flow augmentation rounds) turn a row visit into a contiguous scan
// instead of chasing a slice-of-slices adjacency.
//
// Topology is frozen at construction: rows list edges in the orientation
// they had when the CSR was packed, ascending by edge ID. Residual
// maintenance never re-packs rows — Flip toggles a per-edge orientation bit
// and negates the packed weights in place, and SetWeights patches weights
// in place.
//
// The CURRENT adjacency of a partially-flipped CSR is the merge of two
// ID-ascending streams: the non-reversed entries of OutRow(v) and the
// reversed entries of InRow(v). The merge enumerates v's current out-edges
// in ascending ID order — exactly the order a graph freshly built with the
// current orientations would list them, so a flipped view searches
// identically to a rebuilt one. Kernels inline the merge; other callers use
// Out.
type CSR struct {
	n int
	// outStart/outEdge and inStart/inEdge are the forward and reverse
	// adjacency in standard CSR form: row v is colEdge[rowStart[v]:rowStart[v+1]].
	outStart []int32
	outEdge  []EdgeID
	inStart  []int32
	inEdge   []EdgeID
	// from/to are the FROZEN build-time endpoints of each edge; cost/delay
	// are the CURRENT weights (negated in place by Flip).
	from  []NodeID
	to    []NodeID
	cost  []int64
	delay []int64
	// rev[id] reports that edge id currently runs to→from with negated
	// weights relative to the frozen orientation.
	rev   []bool
	flips int
}

// NewCSR packs the graph's topology and weights into a frozen CSR view.
// Cost: O(n + m), about ten allocations total, independent of later
// Flip/SetWeights traffic.
func NewCSR(g *Digraph) *CSR {
	m := g.NumEdges()
	from, to := make([]NodeID, m), make([]NodeID, m)
	cost, delay := make([]int64, m), make([]int64, m)
	for i, e := range g.EdgesView() {
		from[i], to[i], cost[i], delay[i] = e.From, e.To, e.Cost, e.Delay
	}
	return PackCSR(g.NumNodes(), from, to, cost, delay)
}

// PackCSR packs an n-vertex graph given as parallel per-edge arrays (edge
// i runs from[i]→to[i] with weights cost[i], delay[i]) into a CSR view,
// taking ownership of the four arrays. Rows list edge IDs ascending, the
// order a Digraph built by AddEdge in ID order would list them. Derived
// graphs (the layered auxiliary graphs) are built straight into arrays and
// packed here without an intermediate Digraph.
func PackCSR(n int, from, to []NodeID, cost, delay []int64) *CSR {
	m := len(from)
	c := &CSR{
		n:        n,
		outStart: make([]int32, n+1),
		outEdge:  make([]EdgeID, m),
		inStart:  make([]int32, n+1),
		inEdge:   make([]EdgeID, m),
		from:     from,
		to:       to,
		cost:     cost,
		delay:    delay,
		rev:      make([]bool, m),
	}
	// Counting sort: after the prefix sums, start[v] is the END of row v;
	// placing edges in descending ID order walks each row's cursor down to
	// its start, leaving every row ascending and start[v] at its beginning.
	for i := 0; i < m; i++ {
		c.outStart[from[i]]++
		c.inStart[to[i]]++
	}
	for v := 1; v <= n; v++ {
		c.outStart[v] += c.outStart[v-1]
		c.inStart[v] += c.inStart[v-1]
	}
	for i := m - 1; i >= 0; i-- {
		c.outStart[from[i]]--
		c.outEdge[c.outStart[from[i]]] = EdgeID(i)
		c.inStart[to[i]]--
		c.inEdge[c.inStart[to[i]]] = EdgeID(i)
	}
	return c
}

// Clone returns an independent copy of the view: orientation bits and
// weights are copied, so Flip and SetWeights on the clone leave c untouched,
// while the frozen rows and endpoints are shared.
func (c *CSR) Clone() *CSR {
	d := *c
	d.cost = append([]int64(nil), c.cost...)
	d.delay = append([]int64(nil), c.delay...)
	d.rev = append([]bool(nil), c.rev...)
	return &d
}

// NumNodes reports the number of vertices.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges reports the number of edges.
func (c *CSR) NumEdges() int { return len(c.outEdge) }

// OutRow returns the frozen forward row of v: IDs of edges that left v at
// build time, ascending. Entries whose Reversed bit is set now run INTO v;
// kernels skip them and pick the reversed entries of InRow up instead.
//
//krsp:inbounds
func (c *CSR) OutRow(v NodeID) []EdgeID {
	return c.outEdge[c.outStart[v]:c.outStart[v+1]]
}

// InRow returns the frozen reverse row of v (edges that entered v at build
// time, ascending by ID).
//
//krsp:inbounds
func (c *CSR) InRow(v NodeID) []EdgeID {
	return c.inEdge[c.inStart[v]:c.inStart[v+1]]
}

// Tail returns the current source vertex of edge id.
//
//krsp:inbounds
func (c *CSR) Tail(id EdgeID) NodeID {
	if c.rev[id] {
		return c.to[id]
	}
	return c.from[id]
}

// Head returns the current target vertex of edge id.
//
//krsp:inbounds
func (c *CSR) Head(id EdgeID) NodeID {
	if c.rev[id] {
		return c.from[id]
	}
	return c.to[id]
}

// Cost returns the current cost of edge id (negated while reversed).
//
//krsp:inbounds
func (c *CSR) Cost(id EdgeID) int64 { return c.cost[id] }

// Delay returns the current delay of edge id (negated while reversed).
//
//krsp:inbounds
func (c *CSR) Delay(id EdgeID) int64 { return c.delay[id] }

// Reversed reports whether edge id is currently flipped against its frozen
// orientation.
//
//krsp:inbounds
func (c *CSR) Reversed(id EdgeID) bool { return c.rev[id] }

// Mixed reports whether any edge is currently reversed. On a never-flipped
// view (the problem graph, a layered graph) OutRow alone IS the current
// adjacency, so kernels skip the reverse-row half of the merge.
func (c *CSR) Mixed() bool { return c.flips > 0 }

// Flip reverses edge id in place — the residual-graph primitive of
// Definition 6: direction toggles, both weights negate, the ID stays. Rows
// are untouched (orientation lives in the rev bit), so a flip is O(1).
//
//krsp:inbounds
func (c *CSR) Flip(id EdgeID) {
	if c.rev[id] {
		c.flips--
	} else {
		c.flips++
	}
	c.rev[id] = !c.rev[id]
	c.cost[id] = -c.cost[id]
	c.delay[id] = -c.delay[id]
}

// SetWeights overwrites the CURRENT cost and delay of edge id in place.
//
//krsp:inbounds
func (c *CSR) SetWeights(id EdgeID, cost, delay int64) {
	c.cost[id] = cost
	c.delay[id] = delay
}

// TotalCost sums the current cost of the identified edges.
func (c *CSR) TotalCost(ids []EdgeID) int64 {
	var s int64
	for _, id := range ids {
		s += c.cost[id] //lint:allow weightovf Σ over ≤ m MaxWeight-capped weights stays < 2^61
	}
	return s
}

// TotalDelay sums the current delay of the identified edges.
func (c *CSR) TotalDelay(ids []EdgeID) int64 {
	var s int64
	for _, id := range ids {
		s += c.delay[id] //lint:allow weightovf Σ over ≤ m MaxWeight-capped weights stays < 2^61
	}
	return s
}

// OutCursor walks one vertex's CURRENT out-edges in ascending ID order (the
// two-stream row merge described on CSR). The zero value is exhausted.
type OutCursor struct {
	c       *CSR
	out, in []EdgeID
}

// Out returns a cursor over v's current out-edges.
func (c *CSR) Out(v NodeID) OutCursor {
	return OutCursor{c: c, out: c.OutRow(v), in: c.InRow(v)}
}

// Next returns the next out-edge, or ok=false once the row is exhausted.
//
//krsp:terminates(each skip drops one entry of a finite row)
func (it *OutCursor) Next() (id EdgeID, ok bool) {
	for len(it.out) > 0 && it.c.rev[it.out[0]] {
		it.out = it.out[1:]
	}
	for len(it.in) > 0 && !it.c.rev[it.in[0]] {
		it.in = it.in[1:]
	}
	switch {
	case len(it.out) > 0 && (len(it.in) == 0 || it.out[0] < it.in[0]):
		id, it.out = it.out[0], it.out[1:]
	case len(it.in) > 0:
		id, it.in = it.in[0], it.in[1:]
	default:
		return -1, false
	}
	return id, true
}
