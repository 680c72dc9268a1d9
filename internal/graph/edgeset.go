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
