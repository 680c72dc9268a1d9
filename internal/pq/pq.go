// Package pq provides an indexed binary min-heap keyed by int64 priorities.
// It supports decrease-key by item index, which Dijkstra-style algorithms
// need; indices are dense integers (vertex IDs). Pop returns the least
// (key, item) pair, so equal keys leave in ascending item order and a
// Dijkstra run over the heap settles vertices in (distance, vertex ID)
// order.
package pq

import "math"

// entry is one heap slot: an item with its key stored inline, so a sift
// compares keys without loading them through the item.
type entry struct {
	key  int64
	item int32
}

// Heap is an indexed min-heap over items 0..n-1, n ≤ math.MaxInt32. The
// zero value is not usable; construct with New.
//
// Pop order is a contract: Pop removes the queued item with the least
// (key, item) pair. Items are distinct, so that order is total and the
// sequence of pops depends only on the pushes, never on the heap's shape;
// any queue honouring it is interchangeable. Callers whose parent pointers
// depend on tie order (the min-cost-flow rounds) rely on it, and the
// package's tests hold the heap to a linear-scan oracle of the rule.
type Heap struct {
	heap []entry // heap[i] = entry at heap position i; cap = item universe
	pos  []int32 // pos[item] = heap position, or -1 if absent
}

// New returns a heap able to hold items 0..n-1.
func New(n int) *Heap {
	h := &Heap{}
	h.Grow(n)
	return h
}

// Len reports the number of queued items.
func (h *Heap) Len() int { return len(h.heap) }

// Contains reports whether item is queued.
func (h *Heap) Contains(item int) bool { return h.pos[item] >= 0 }

// Push inserts item with the given key, or decreases/updates its key if it
// is already queued. Increasing an existing key is also supported (it sifts
// down), though Dijkstra never needs it.
func (h *Heap) Push(item int, key int64) {
	e := entry{key: key, item: int32(item)}
	if i := int(h.pos[item]); i >= 0 {
		// A smaller key can only move up and a larger or equal one only
		// down, so the one sift that can move it is the only one run.
		if key < h.heap[i].key {
			h.up(i, e)
		} else {
			h.down(i, e)
		}
		return
	}
	// New and Grow size the array's capacity to the item universe, and an
	// item is queued at most once, so the slot is always within capacity.
	i := len(h.heap)
	h.heap = h.heap[:i+1]
	h.up(i, e)
}

// Pop removes and returns the item with minimum key. It panics on an empty
// heap.
func (h *Heap) Pop() (item int, key int64) {
	top := h.heap[0]
	last := len(h.heap) - 1
	e := h.heap[last]
	h.heap = h.heap[:last]
	h.pos[top.item] = -1
	if last > 0 {
		h.down(0, e)
	}
	return int(top.item), top.key
}

// Reset empties the heap for reuse without reallocating.
func (h *Heap) Reset() {
	for _, e := range h.heap {
		h.pos[e.item] = -1
	}
	h.heap = h.heap[:0]
}

// Grow ensures the heap can hold items 0..n-1, reallocating the position
// and entry arrays only when n exceeds the current universe. Queued items
// survive a growing call; workspace reuse across graphs of different sizes
// depends on this (callers Reset between uses, Grow only when the universe
// expands).
func (h *Heap) Grow(n int) {
	if n <= len(h.pos) {
		return
	}
	if n > math.MaxInt32 {
		//lint:allow nopanic caller contract: positions are int32, and a universe this large could not be allocated anyway
		panic("pq: item universe exceeds the int32 position range")
	}
	//lint:allow contracts amortized: reallocates only when the item universe expands
	pos := make([]int32, n)
	copy(pos, h.pos)
	for i := len(h.pos); i < n; i++ {
		pos[i] = -1
	}
	//lint:allow contracts amortized: reallocates only when the item universe expands; Push then never appends past it
	heap := make([]entry, len(h.heap), n)
	copy(heap, h.heap)
	h.pos = pos
	h.heap = heap
}

// Cap reports the size of the item universe the heap currently supports.
func (h *Heap) Cap() int { return len(h.pos) }

// less orders entries by key, then by item.
func less(a, b entry) bool {
	return a.key < b.key || a.key == b.key && a.item < b.item
}

// up sifts e toward the root from the hole at i and stores it where it
// stops: each parent that orders after e moves down into the hole.
//
//krsp:terminates(i moves strictly toward the heap root each pass)
func (h *Heap) up(i int, e entry) {
	hp, pos := h.heap, h.pos
	for i > 0 {
		p := (i - 1) / 2
		pe := hp[p]
		if !less(e, pe) {
			break
		}
		hp[i] = pe
		pos[pe.item] = int32(i)
		i = p
	}
	hp[i] = e
	pos[e.item] = int32(i)
}

// down sifts e toward the leaves from the hole at i and stores it where it
// stops: the lesser child moves up into the hole while it orders before e.
//
//krsp:terminates(i strictly descends a heap of ≤ n entries)
func (h *Heap) down(i int, e entry) {
	hp, pos := h.heap, h.pos
	n := len(hp)
	for {
		l := 2*i + 1
		if l >= n || l < 0 {
			break
		}
		small, se := i, e
		if c := hp[l]; less(c, se) {
			small, se = l, c
		}
		if r := l + 1; r < n {
			if c := hp[r]; less(c, se) {
				small, se = r, c
			}
		}
		if small == i {
			break
		}
		hp[i] = se
		pos[se.item] = int32(i)
		i = small
	}
	hp[i] = e
	pos[e.item] = int32(i)
}
