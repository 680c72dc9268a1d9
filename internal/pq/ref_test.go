package pq

// This file keeps the indexed heap as it stood before entries carried their
// keys inline (an item array, a position array and a per-item key array,
// sifting by pairwise swaps), verbatim apart from the renames refHeap and
// newRef. It is the reference the inline-key Heap must match pop for pop,
// ties included (TestHeapMatchesReference).

// refHeap is an indexed min-heap over items 0..n-1. The zero value is not
// usable; construct with newRef.
type refHeap struct {
	heap []int   // heap[i] = item at heap position i
	pos  []int   // pos[item] = heap position, or -1 if absent
	key  []int64 // key[item] = current priority
}

// newRef returns a heap able to hold items 0..n-1.
func newRef(n int) *refHeap {
	h := &refHeap{
		//lint:allow contracts construction: runs once per workspace, buffers reused across every run
		heap: make([]int, 0, n),
		//lint:allow contracts construction: runs once per workspace, buffers reused across every run
		pos: make([]int, n),
		//lint:allow contracts construction: runs once per workspace, buffers reused across every run
		key: make([]int64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued items.
func (h *refHeap) Len() int { return len(h.heap) }

// Contains reports whether item is queued.
func (h *refHeap) Contains(item int) bool { return h.pos[item] >= 0 }

// Key returns item's current priority; valid only if Contains(item) or the
// item was previously pushed (keys persist after Pop).
func (h *refHeap) Key(item int) int64 { return h.key[item] }

// Push inserts item with the given key, or decreases/updates its key if it
// is already queued. Increasing an existing key is also supported (sift
// both directions), though Dijkstra never needs it.
func (h *refHeap) Push(item int, key int64) {
	if h.pos[item] >= 0 {
		h.key[item] = key
		h.up(h.pos[item])
		h.down(h.pos[item])
		return
	}
	h.key[item] = key
	//lint:allow contracts amortized: New/Grow precap the buffer to the item universe, so append stays in place
	h.heap = append(h.heap, item)
	h.pos[item] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// Pop removes and returns the item with minimum key. It panics on an empty
// heap.
func (h *refHeap) Pop() (item int, key int64) {
	item = h.heap[0]
	key = h.key[item]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(0)
	}
	return item, key
}

// Reset empties the heap for reuse without reallocating.
func (h *refHeap) Reset() {
	for _, item := range h.heap {
		h.pos[item] = -1
	}
	h.heap = h.heap[:0]
}

// Grow ensures the heap can hold items 0..n-1, reallocating the index
// arrays only when n exceeds the current capacity. Queued items survive a
// growing call; workspace reuse across graphs of different sizes depends on
// this (callers Reset between uses, Grow only when the universe expands).
func (h *refHeap) Grow(n int) {
	if n <= len(h.pos) {
		return
	}
	//lint:allow contracts amortized: reallocates only when the item universe expands
	pos := make([]int, n)
	//lint:allow contracts amortized: reallocates only when the item universe expands
	key := make([]int64, n)
	copy(pos, h.pos)
	copy(key, h.key)
	for i := len(h.pos); i < n; i++ {
		pos[i] = -1
	}
	h.pos = pos
	h.key = key
}

// Cap reports the size of the item universe the heap currently supports.
func (h *refHeap) Cap() int { return len(h.pos) }

func (h *refHeap) less(i, j int) bool { return h.key[h.heap[i]] < h.key[h.heap[j]] }

func (h *refHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

//krsp:terminates(i moves strictly toward the heap root each pass)
func (h *refHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

//krsp:terminates(i strictly descends a heap of ≤ n entries)
func (h *refHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
