// Package pq provides an indexed monotone priority queue keyed by int64
// priorities, for Dijkstra-style algorithms: items are dense integers
// (vertex IDs), a push inserts an item or moves a queued one to a new key,
// and Pop returns the least (key, item) pair, so equal keys leave in
// ascending item order and a Dijkstra run over the queue settles vertices
// in (distance, vertex ID) order.
//
// The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster
// algorithms for the shortest path problem", JACM 1990). It is monotone: a
// push may not go below the key of the last pop, which every Dijkstra over
// nonnegative weights honours. Its lowest tier holds the items queued at
// the last popped key in a 64-ary bit trie over item IDs, so a tied item
// pops in a few word operations. An item costs 16 bytes: its key and two
// list links, since a queued item's bucket follows from its key.
package pq

import (
	"math"
	"math/bits"
)

const (
	// signBit maps an int64 key to a uint64 of the same order: flipping
	// the sign bit sends math.MinInt64 to 0 and math.MaxInt64 to 2^64−1.
	signBit = 1 << 63
	// absent is the next link of an item that is not queued; a queued
	// item's next is an item ID or -1.
	absent = -2
	// maxLevels is the trie depth of the largest universe, math.MaxInt32
	// items: ⌈31/6⌉ levels of 64-ary words.
	maxLevels = 6
)

// Heap is an indexed monotone min-queue over items 0..n-1,
// n ≤ math.MaxInt32. Construct it with New, or Grow a zero Heap before its
// first use (a caller embedding Heaps by value saves New's allocation).
//
// Pop order is a contract: Pop removes the queued item with the least
// (key, item) pair. Items are distinct, so that order is total and the
// sequence of pops depends only on the pushes, never on the queue's
// layout; any queue honouring it is interchangeable. Callers whose parent
// pointers depend on tie order (the min-cost-flow rounds) rely on it, and
// the package's tests hold the queue to a linear-scan oracle of the rule.
//
// Push is monotone: its key must be at least the key of the last Pop since
// New or Reset, and a lower key panics.
//
// Layout. Keys are stored order-mapped to uint64 (see signBit), and last
// is the mapped key of the last Pop (0 before any). A queued item with
// mapped key k sits in bucket bits.Len64(k ^ last), which is recomputed
// from the key rather than stored: bucket 0 holds the
// items at exactly last, as set bits of a 64-ary trie over item IDs;
// bucket b ≥ 1 holds the keys whose highest bit differing from last is bit
// b−1, as a doubly linked list threaded through the items' links. Every
// key of bucket b is below every key of bucket b+1. When the trie is
// empty, Pop takes the lowest non-empty bucket, makes its least key the
// new last and redistributes the bucket: its items land in lower buckets
// (the least ones in the trie), and no other item changes bucket, because
// the new last agrees with the old one on every bit above b−1 when b is
// the refilled bucket. So an item moves at most 64 times between pushes,
// and a push or pop at the current key costs one trie walk.
type Heap struct {
	// Two slabs hold every per-item array, so a growing Grow costs two
	// allocations: keys and the trie levels share one []uint64, and links
	// is the other. An item costs 16 bytes.
	keys  []uint64 // keys[item] = mapped key, valid while queued
	links []link   // links[item] = item's list neighbours, or absent

	// trie[l] is level l of bucket 0, leaves first: bit i of trie[0]'s
	// word j marks item 64j+i, and bit i of trie[l]'s word j marks a
	// non-zero word 64j+i of trie[l−1]. The top level, trie[levels−1], is
	// one word.
	trie   [maxLevels][]uint64
	levels int

	head  [65]int32 // head[b] = first item of bucket b ≥ 1, valid while mask has b
	mask  uint64    // bit b−1 set iff bucket b ≥ 1 is non-empty
	last  uint64    // mapped key of the last Pop since Reset
	count int       // queued items
}

// link is an item's place in its bucket's list: its neighbours, -1 at
// either end. next is absent while the item is not queued; in the trie,
// where the links are unused, it is -1.
type link struct {
	next, prev int32
}

// New returns a queue able to hold items 0..n-1.
func New(n int) *Heap {
	h := &Heap{}
	h.Grow(n)
	return h
}

// Len reports the number of queued items.
func (h *Heap) Len() int { return h.count }

// Contains reports whether item is queued.
func (h *Heap) Contains(item int) bool { return h.links[item].next != absent }

// Push inserts item with the given key, or moves it to that key if it is
// already queued; a push at the item's current key changes nothing. The
// key must be at least the key of the last Pop since Reset.
func (h *Heap) Push(item int, key int64) {
	k := uint64(key) ^ signBit
	if k < h.last {
		//lint:allow nopanic caller contract: every caller pushes a popped key plus a weight it has already checked nonnegative; TestPushBelowLastPopPanics witnesses the panic
		panic("pq: Push below the key of the last Pop")
	}
	b := int32(bits.Len64(k ^ h.last))
	if h.links[item].next == absent {
		h.count++
	} else {
		switch old := int32(bits.Len64(h.keys[item] ^ h.last)); {
		case h.keys[item] == k:
			return
		case old == b:
			// Same bucket (never the trie: its keys all equal last): the
			// list does not order its items, so only the key changes.
			h.keys[item] = k
			return
		case old == 0:
			h.trieRemove(item)
		default:
			h.unlink(int32(item), old)
		}
	}
	h.keys[item] = k
	h.place(int32(item), b)
}

// Pop removes and returns the queued item with the least (key, item) pair.
// It panics on an empty queue.
func (h *Heap) Pop() (item int, key int64) {
	if h.trie[h.levels-1][0] == 0 {
		h.refill()
	}
	i := h.trieMin()
	h.trieRemove(i)
	h.links[i].next = absent
	h.count--
	return i, int64(h.last ^ signBit)
}

// Reset empties the queue for reuse without reallocating, in time linear
// in the number of queued items, and lifts the monotone floor: the next
// push may have any key.
//
//krsp:terminates(each list walk is one bucket's ≤ n items, and each trie pass removes one of the count queued items)
func (h *Heap) Reset() {
	for m := h.mask; m != 0; m &= m - 1 {
		for i := h.head[bits.TrailingZeros64(m)+1]; i >= 0; {
			next := h.links[i].next
			h.links[i].next = absent
			h.count--
			i = next
		}
	}
	h.mask = 0
	for h.count > 0 {
		i := h.trieMin()
		h.trieRemove(i)
		h.links[i].next = absent
		h.count--
	}
	h.last = 0
}

// Grow ensures the queue can hold items 0..n-1, reallocating its two slabs
// only when n exceeds the current universe. Queued items survive a growing
// call, with their keys and the monotone floor; workspace reuse across
// graphs of different sizes depends on this (callers Reset between uses,
// Grow only when the universe expands).
func (h *Heap) Grow(n int) {
	old := len(h.links)
	if n <= old {
		return
	}
	if n > math.MaxInt32 {
		//lint:allow nopanic caller contract: item IDs and links are int32, and a universe this large could not be allocated anyway
		panic("pq: item universe exceeds the int32 range")
	}
	var sizes [maxLevels]int
	levels, trieWords := 0, 0
	for w := n; levels == 0 || w > 1; levels++ {
		w = (w + 63) / 64
		sizes[levels] = w
		trieWords += w
	}
	words := make([]uint64, n+trieWords)
	links := make([]link, n)
	keys := words[:n:n]
	copy(keys, h.keys)
	copy(links, h.links)
	for i := old; i < n; i++ {
		links[i].next = absent
	}
	var trie [maxLevels][]uint64
	rest := words[n:]
	for l := 0; l < levels; l++ {
		trie[l], rest = rest[:sizes[l]:sizes[l]], rest[sizes[l]:]
	}
	// The old leaves are a prefix of the new ones; each upper level marks
	// the non-zero words of the level below it.
	copy(trie[0], h.trie[0])
	for l := 1; l < levels; l++ {
		for j, w := range trie[l-1] {
			if w != 0 {
				trie[l][j>>6] |= 1 << (j & 63)
			}
		}
	}
	h.keys, h.links = keys, links
	h.trie, h.levels = trie, levels
}

// Cap reports the size of the item universe the queue currently supports.
func (h *Heap) Cap() int { return len(h.links) }

// place files item, whose key is set, in bucket b.
func (h *Heap) place(item, b int32) {
	if b == 0 {
		h.links[item].next = -1
		h.trieAdd(int(item))
		return
	}
	bit := uint64(1) << (b - 1)
	l := &h.links[item]
	l.prev = -1
	if h.mask&bit == 0 {
		h.mask |= bit
		l.next = -1
	} else {
		first := h.head[b]
		l.next = first
		h.links[first].prev = item
	}
	h.head[b] = item
}

// unlink removes item from the list of bucket b ≥ 1.
func (h *Heap) unlink(item, b int32) {
	l := h.links[item]
	if l.next >= 0 {
		h.links[l.next].prev = l.prev
	}
	if l.prev >= 0 {
		h.links[l.prev].next = l.next
	} else if l.next >= 0 {
		h.head[b] = l.next
	} else {
		h.mask &^= 1 << (b - 1)
	}
}

// refill makes the least key of the lowest non-empty list bucket the new
// last and redistributes that bucket, so its least items enter the trie.
// It panics on an empty queue.
//
//krsp:terminates(each walk follows one bucket's list, ≤ n items)
func (h *Heap) refill() {
	b := int32(bits.TrailingZeros64(h.mask) + 1) // 65 on an empty queue: out of range
	first := h.head[b]
	least := h.keys[first]
	for i := h.links[first].next; i >= 0; i = h.links[i].next {
		least = min(least, h.keys[i])
	}
	h.last = least
	h.mask &^= 1 << (b - 1)
	for i := first; i >= 0; {
		nx := h.links[i].next
		h.place(i, int32(bits.Len64(h.keys[i]^least)))
		i = nx
	}
}

// trieAdd sets item's leaf bit and, up the levels, the bit of each word
// that was empty before.
func (h *Heap) trieAdd(item int) {
	i := uint(item)
	for l := 0; l < h.levels; l++ {
		w := &h.trie[l][i>>6]
		was := *w
		*w = was | 1<<(i&63)
		if was != 0 {
			return
		}
		i >>= 6
	}
}

// trieRemove clears item's leaf bit and, up the levels, the bit of each
// word that became empty.
func (h *Heap) trieRemove(item int) {
	i := uint(item)
	for l := 0; l < h.levels; l++ {
		w := &h.trie[l][i>>6]
		*w &^= 1 << (i & 63)
		if *w != 0 {
			return
		}
		i >>= 6
	}
}

// trieMin returns the least item in the trie, which must not be empty.
func (h *Heap) trieMin() int {
	i := uint(0)
	for l := h.levels - 1; l >= 0; l-- {
		i = i<<6 | uint(bits.TrailingZeros64(h.trie[l][i]))
	}
	return int(i)
}
