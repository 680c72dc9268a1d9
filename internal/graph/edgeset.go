package graph

// EdgeSet is a set of edge IDs. The zero value is empty but not usable;
// construct with NewEdgeSet.
type EdgeSet struct {
	m map[EdgeID]struct{}
}

// NewEdgeSet builds a set from the given IDs.
func NewEdgeSet(ids ...EdgeID) EdgeSet {
	s := EdgeSet{m: make(map[EdgeID]struct{}, len(ids))}
	for _, id := range ids {
		s.m[id] = struct{}{}
	}
	return s
}

// NewEdgeSetSize returns an empty set with room for n IDs, so filling it
// with up to n members never grows its map.
func NewEdgeSetSize(n int) EdgeSet {
	return EdgeSet{m: make(map[EdgeID]struct{}, n)}
}

// Add inserts id.
func (s EdgeSet) Add(id EdgeID) { s.m[id] = struct{}{} }

// Remove deletes id; removing an absent ID is a no-op.
func (s EdgeSet) Remove(id EdgeID) { delete(s.m, id) }

// Has reports membership.
func (s EdgeSet) Has(id EdgeID) bool { _, ok := s.m[id]; return ok }

// Len reports the cardinality.
func (s EdgeSet) Len() int { return len(s.m) }

// Each calls fn for every member in unspecified order. Order-insensitive
// consumers (sums, counts) use it to skip the sort-and-allocate of IDs.
func (s EdgeSet) Each(fn func(EdgeID)) {
	for id := range s.m {
		fn(id)
	}
}

// IDs returns the members sorted ascending (deterministic).
func (s EdgeSet) IDs() []EdgeID {
	out := make([]EdgeID, 0, len(s.m))
	//lint:allow detmap collection order is erased by the sort below
	for id := range s.m {
		out = append(out, id)
	}
	return SortedEdgeIDs(out)
}

// Clone returns an independent copy.
func (s EdgeSet) Clone() EdgeSet {
	c := EdgeSet{m: make(map[EdgeID]struct{}, len(s.m))}
	for id := range s.m {
		c.m[id] = struct{}{}
	}
	return c
}

// Union returns s ∪ t.
func (s EdgeSet) Union(t EdgeSet) EdgeSet {
	u := s.Clone()
	for id := range t.m {
		u.m[id] = struct{}{}
	}
	return u
}

// Intersect returns s ∩ t.
func (s EdgeSet) Intersect(t EdgeSet) EdgeSet {
	u := NewEdgeSet()
	for id := range s.m {
		if t.Has(id) {
			u.m[id] = struct{}{}
		}
	}
	return u
}

// Minus returns s \ t.
func (s EdgeSet) Minus(t EdgeSet) EdgeSet {
	u := NewEdgeSet()
	for id := range s.m {
		if !t.Has(id) {
			u.m[id] = struct{}{}
		}
	}
	return u
}

// OPlus implements the paper's ⊕ operator on edge sets of a single graph
// (Section 2.1): E1 ⊕ E2 is E1 ∪ E2 with every pair of opposite parallel
// edges {e(u,v), e'(v,u)} removed. In the flow view this cancels a unit of
// forward flow against a unit of reverse flow.
//
// Identification of "opposite parallel" pairs is positional: an edge u→v in
// the union cancels against an edge v→u in the union. When several
// candidates exist (multigraph), pairs are cancelled greedily in ascending
// ID order, which is the standard flow-cancellation semantics: the paper's
// residual graphs never contain both an edge and its reverse inside the
// same operand, so the greedy choice is canonical there.
func OPlus(g *Digraph, e1, e2 EdgeSet) EdgeSet {
	union := e1.Union(e2)
	ids := union.IDs()
	// Bucket edges of the union by unordered endpoint pair, then cancel
	// opposite directions pairwise.
	type key struct{ a, b NodeID }
	norm := func(u, v NodeID) key {
		if u <= v {
			return key{u, v}
		}
		return key{v, u}
	}
	buckets := make(map[key][]EdgeID)
	for _, id := range ids {
		e := g.Edge(id)
		k := norm(e.From, e.To)
		buckets[k] = append(buckets[k], id)
	}
	dropped := NewEdgeSet()
	// Re-walk ids so buckets are processed in first-seen (ascending edge
	// ID) order; ranging over the map would order cancellations by hash.
	for _, id := range ids {
		e := g.Edge(id)
		k := norm(e.From, e.To)
		members, pending := buckets[k]
		if !pending {
			continue
		}
		delete(buckets, k)
		var fwd, bwd []EdgeID // k.a→k.b and k.b→k.a respectively
		for _, id := range members {
			if g.Edge(id).From == k.a {
				fwd = append(fwd, id)
			} else {
				bwd = append(bwd, id)
			}
		}
		n := len(fwd)
		if len(bwd) < n {
			n = len(bwd)
		}
		for i := 0; i < n; i++ {
			dropped.Add(fwd[i])
			dropped.Add(bwd[i])
		}
	}
	return union.Minus(dropped)
}
