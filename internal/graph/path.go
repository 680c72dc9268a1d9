package graph

import (
	"fmt"
	"strings"
)

// Path is a directed walk represented by its edge sequence. Every algorithm
// in this repository produces simple paths (no repeated edges); Validate
// additionally checks vertex-level simplicity when asked.
type Path struct {
	Edges []EdgeID
}

// Len reports the number of edges.
func (p Path) Len() int { return len(p.Edges) }

// Cost sums edge costs in g.
func (p Path) Cost(g *Digraph) int64 { return g.TotalCost(p.Edges) }

// Delay sums edge delays in g.
func (p Path) Delay(g *Digraph) int64 { return g.TotalDelay(p.Edges) }

// From returns the first vertex of the path; it panics on an empty path.
func (p Path) From(g *Digraph) NodeID { return g.Edge(p.Edges[0]).From }

// To returns the last vertex of the path; it panics on an empty path.
func (p Path) To(g *Digraph) NodeID { return g.Edge(p.Edges[len(p.Edges)-1]).To }

// Nodes returns the vertex sequence of the path (length Len()+1).
func (p Path) Nodes(g *Digraph) []NodeID {
	if len(p.Edges) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p.Edges)+1)
	out = append(out, g.Edge(p.Edges[0]).From)
	for _, id := range p.Edges {
		out = append(out, g.Edge(id).To)
	}
	return out
}

// Validate checks that p is a contiguous s→t walk in g. With simple=true it
// also rejects repeated vertices.
func (p Path) Validate(g *Digraph, s, t NodeID, simple bool) error {
	if len(p.Edges) == 0 {
		if s == t {
			return nil
		}
		return fmt.Errorf("graph: empty path cannot connect %d→%d", s, t)
	}
	cur := s
	seenV := map[NodeID]bool{s: true}
	seenE := map[EdgeID]bool{}
	for i, id := range p.Edges {
		if int(id) >= g.NumEdges() || id < 0 {
			return fmt.Errorf("graph: path edge %d (#%d) unknown", id, i)
		}
		if seenE[id] {
			return fmt.Errorf("graph: path repeats edge %d", id)
		}
		seenE[id] = true
		e := g.Edge(id)
		if e.From != cur {
			return fmt.Errorf("graph: path edge #%d starts at %d, want %d", i, e.From, cur)
		}
		cur = e.To
		if simple && seenV[cur] && !(cur == t && i == len(p.Edges)-1) {
			return fmt.Errorf("graph: path revisits vertex %d", cur)
		}
		seenV[cur] = true
	}
	if cur != t {
		return fmt.Errorf("graph: path ends at %d, want %d", cur, t)
	}
	return nil
}

// Format renders the path as a vertex chain, e.g. "0->3->5".
func (p Path) Format(g *Digraph) string {
	nodes := p.Nodes(g)
	if len(nodes) == 0 {
		return "(empty path)"
	}
	var b strings.Builder
	for i, v := range nodes {
		if i > 0 {
			b.WriteString("->")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Cycle is a closed directed walk represented by its edge sequence: the
// head of the last edge equals the tail of the first.
type Cycle struct {
	Edges []EdgeID
}

// Len reports the number of edges.
func (c Cycle) Len() int { return len(c.Edges) }

// Cost sums edge costs in g.
func (c Cycle) Cost(g *Digraph) int64 { return g.TotalCost(c.Edges) }

// Delay sums edge delays in g.
func (c Cycle) Delay(g *Digraph) int64 { return g.TotalDelay(c.Edges) }

// Validate checks that c is a contiguous closed walk in g with no repeated
// edge. Vertices may repeat only if simple is false.
func (c Cycle) Validate(g Endpoints, simple bool) error {
	if len(c.Edges) == 0 {
		return fmt.Errorf("graph: empty cycle")
	}
	var start, cur NodeID
	seenE := map[EdgeID]bool{}
	seenV := map[NodeID]bool{}
	for i, id := range c.Edges {
		if id < 0 || int(id) >= g.NumEdges() {
			return fmt.Errorf("graph: cycle edge %d (#%d) unknown", id, i)
		}
		if i == 0 {
			start = g.Tail(id)
			cur = start
		}
		if seenE[id] {
			return fmt.Errorf("graph: cycle repeats edge %d", id)
		}
		seenE[id] = true
		if from := g.Tail(id); from != cur {
			return fmt.Errorf("graph: cycle edge #%d starts at %d, want %d", i, from, cur)
		}
		if simple && seenV[cur] {
			return fmt.Errorf("graph: cycle revisits vertex %d", cur)
		}
		seenV[cur] = true
		cur = g.Head(id)
	}
	if cur != start {
		return fmt.Errorf("graph: cycle ends at %d, want %d", cur, start)
	}
	return nil
}

// Format renders the cycle as a vertex chain ending at its start.
func (c Cycle) Format(g *Digraph) string {
	if len(c.Edges) == 0 {
		return "(empty cycle)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", g.Edge(c.Edges[0]).From)
	for _, id := range c.Edges {
		fmt.Fprintf(&b, "->%d", g.Edge(id).To)
	}
	return b.String()
}
