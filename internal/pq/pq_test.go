package pq

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	h := New(5)
	keys := []int64{42, 7, 19, 3, 25}
	for i, k := range keys {
		h.Push(i, k)
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, wk := range want {
		_, k := h.Pop()
		if k != wk {
			t.Fatalf("pop key %d, want %d", k, wk)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len %d after draining", h.Len())
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(3)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Push(2, 1) // decrease
	item, k := h.Pop()
	if item != 2 || k != 1 {
		t.Fatalf("got %d/%d, want 2/1", item, k)
	}
}

func TestIncreaseKey(t *testing.T) {
	h := New(3)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Push(0, 99) // increase
	item, _ := h.Pop()
	if item != 1 {
		t.Fatalf("got %d, want 1", item)
	}
}

func TestContainsAndKey(t *testing.T) {
	h := New(2)
	h.Push(1, 5)
	if !h.Contains(1) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if item, k := h.Pop(); item != 1 || k != 5 {
		t.Fatalf("Pop = %d/%d, want 1/5", item, k)
	}
	if h.Contains(1) {
		t.Fatal("popped item still contained")
	}
}

func TestReset(t *testing.T) {
	h := New(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("reset incomplete")
	}
	h.Push(2, 3)
	if item, _ := h.Pop(); item != 2 {
		t.Fatal("heap unusable after reset")
	}
}

func TestQuickHeapSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		h := New(n)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(1000) - 500)
			h.Push(i, keys[i])
		}
		// Random decrease-keys.
		for j := 0; j < n/2; j++ {
			i := r.Intn(n)
			keys[i] -= int64(r.Intn(100))
			h.Push(i, keys[i])
		}
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, wk := range sorted {
			if _, k := h.Pop(); k != wk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// oracle is the pop-order rule written out: the queued items and their
// keys, with Pop a linear scan for the least (key, item) pair.
type oracle map[int]int64

func (o oracle) Pop() (item int, key int64) {
	item = -1
	for i, k := range o {
		if item < 0 || k < key || k == key && i < item {
			item, key = i, k
		}
	}
	delete(o, item)
	return item, key
}

// specCheck drives a Heap and the oracle through the same operations and
// fails at the first Pop, Len or Contains on which they disagree. floor is
// the key of the last Pop since Reset, the least key a push may carry;
// before the first pop (popped false) any key is allowed. bothTiers counts
// the Grow and Reset calls made while the trie and a list bucket both held
// items.
type specCheck struct {
	t         testing.TB
	h         *Heap
	spec      oracle
	floor     int64
	popped    bool
	bothTiers int
}

func newSpecCheck(t testing.TB, n int) *specCheck {
	return &specCheck{t: t, h: New(n), spec: oracle{}}
}

// above returns floor + delta (delta ≥ 0), saturating at math.MaxInt64.
func above(floor, delta int64) int64 {
	if delta > math.MaxInt64-floor {
		return math.MaxInt64
	}
	return floor + delta
}

func (c *specCheck) push(item int, key int64) {
	if c.popped && key < c.floor {
		c.t.Helper()
		c.t.Fatalf("test bug: push of key %d below the floor %d", key, c.floor)
	}
	c.h.Push(item, key)
	c.spec[item] = key
}

func (c *specCheck) pop() {
	if c.h.Len() != len(c.spec) {
		c.t.Helper()
		c.t.Fatalf("Len %d, spec %d", c.h.Len(), len(c.spec))
	}
	if len(c.spec) == 0 {
		return
	}
	gi, gk := c.h.Pop()
	wi, wk := c.spec.Pop()
	if gi != wi || gk != wk {
		c.t.Helper()
		c.t.Fatalf("Pop = (%d, %d), spec (%d, %d)", gi, gk, wi, wk)
	}
	c.floor, c.popped = gk, true
}

// tiersBusy reports whether the trie and some list bucket both hold items.
func (c *specCheck) tiersBusy() bool {
	return c.h.trie[c.h.levels-1][0] != 0 && c.h.mask != 0
}

func (c *specCheck) grow(n int) {
	if n > c.h.Cap() && c.tiersBusy() {
		c.bothTiers++
	}
	c.h.Grow(n)
}

func (c *specCheck) reset() {
	if c.tiersBusy() {
		c.bothTiers++
	}
	c.h.Reset()
	clear(c.spec)
	c.popped = false
}

func (c *specCheck) contains(item int) {
	if _, queued := c.spec[item]; c.h.Contains(item) != queued {
		c.t.Helper()
		c.t.Fatalf("Contains(%d) = %v, spec %v", item, c.h.Contains(item), queued)
	}
}

// drain pops both to empty and checks the queue is empty too.
func (c *specCheck) drain() {
	for len(c.spec) > 0 {
		c.pop()
	}
	if c.h.Len() != 0 {
		c.t.Helper()
		c.t.Fatalf("%d items left after the spec drained", c.h.Len())
	}
}

// TestHeapMatchesSpec drives Heap and the linear-scan oracle through the
// same random operation sequences and requires the same (item, key) from
// every Pop. Keys come from small ranges above the last popped key (the
// monotone rule), so ties dominate, which is where a queue that broke them
// by anything but the item would pop a different item. Sequences mix new
// pushes, decreases, increases and equal-key updates, pops, Reset and Grow
// (including Grow with items queued).
func TestHeapMatchesSpec(t *testing.T) {
	const sequences, ops = 20000, 400
	r := rand.New(rand.NewSource(1))
	for seq := 0; seq < sequences; seq++ {
		n := 1 + r.Intn(64)
		keyRange := 1 + r.Intn(8)
		c := newSpecCheck(t, n)
		for op := 0; op < ops; op++ {
			switch x := r.Intn(100); {
			case x < 55:
				lo := int64(0)
				if c.popped {
					lo = c.floor
				}
				c.push(r.Intn(c.h.Cap()), lo+int64(r.Intn(keyRange)))
			case x < 93:
				c.pop()
			case x < 96:
				c.grow(c.h.Cap() + r.Intn(8))
			case x < 98:
				c.reset()
			default:
				c.contains(r.Intn(c.h.Cap()))
			}
		}
		c.drain()
	}
}

// wideKey draws a key at or above floor (any key before the first pop)
// that lands in a random bucket: a tie at the floor, a small step, or a
// step of random bit length up to 2^62. First keys span ±2^62, so a
// negative floor followed by a positive key reaches bucket 64.
func wideKey(r *rand.Rand, c *specCheck) int64 {
	if !c.popped {
		return int64(r.Uint64()) >> 1
	}
	switch r.Intn(4) {
	case 0:
		return c.floor
	case 1:
		return above(c.floor, int64(r.Intn(4)))
	default:
		return above(c.floor, r.Int63n(1<<62)>>r.Intn(62))
	}
}

// TestHeapMatchesSpecWide holds Heap to the oracle where the flow tests
// cannot reach: their graphs have at most 44 vertices, so the trie never
// grows a second level. Here universes run up to 2^19 items (four trie
// levels), with items drawn from a pool of at most 2,000 so the oracle
// stays fast and decrease-keys and ties stay common; keys span ±2^62, so
// items cross many buckets, bucket 64 included; and Grow and Reset are
// called while the trie and the list buckets both hold items.
func TestHeapMatchesSpecWide(t *testing.T) {
	const sequences, ops, wideUniverse = 150, 3000, 1 << 19
	r := rand.New(rand.NewSource(2))
	deepest, bothTiers := 0, 0
	for seq := 0; seq < sequences; seq++ {
		c := newSpecCheck(t, 1+r.Intn(1<<(1+r.Intn(19))))
		pool := make([]int, 1+r.Intn(2000))
		for i := range pool {
			pool[i] = r.Intn(c.h.Cap())
		}
		for op := 0; op < ops; op++ {
			switch x := r.Intn(100); {
			case x < 55:
				c.push(pool[r.Intn(len(pool))], wideKey(r, c))
			case x < 96:
				c.pop()
			case x < 97:
				// Each Grow copies the universe, so it at most doubles it.
				c.grow(min(wideUniverse, c.h.Cap()+1+r.Intn(c.h.Cap())))
				// New items join the pool, so the grown range is queued.
				pool[r.Intn(len(pool))] = c.h.Cap() - 1
			case x < 98:
				c.reset()
			default:
				c.contains(pool[r.Intn(len(pool))])
			}
			deepest = max(deepest, c.h.levels)
		}
		c.drain()
		bothTiers += c.bothTiers
	}
	if deepest < 4 {
		t.Fatalf("deepest trie had %d levels, want 4", deepest)
	}
	if bothTiers == 0 {
		t.Fatal("no Grow or Reset ran with both tiers holding items")
	}
}

// TestGrowAndResetWithBothTiers pins the cases the random sequences reach
// only by chance: Grow across a trie level while the trie holds ties at
// the popped key and a list bucket holds a larger one, and Reset in the
// same state, after which a key below the old floor is accepted.
func TestGrowAndResetWithBothTiers(t *testing.T) {
	for _, reset := range []bool{false, true} {
		c := newSpecCheck(t, 60)
		for _, item := range []int{7, 59, 3, 30} {
			c.push(item, 10)
		}
		c.push(12, 1<<40)
		c.pop() // 3 at 10: 7, 30 and 59 tie in the trie, 12 waits in a list
		if !c.tiersBusy() {
			t.Fatal("setup: both tiers should hold items")
		}
		c.grow(4000)
		if c.h.levels != 2 {
			t.Fatalf("Grow(4000): %d trie levels, want 2", c.h.levels)
		}
		c.push(3999, 10)
		c.pop()
		if reset {
			c.reset()
			c.contains(59)
			c.push(3998, -5)
			c.push(59, -5)
		}
		c.drain()
	}
}

// TestPushBelowLastPopPanics is the runtime witness for Push's monotone
// panic: after a pop at 5, a push at 5 is accepted and a push at 4 panics;
// Reset lifts the floor again.
func TestPushBelowLastPopPanics(t *testing.T) {
	h := New(4)
	h.Push(0, 5)
	h.Push(1, 7)
	if item, k := h.Pop(); item != 0 || k != 5 {
		t.Fatalf("Pop = %d/%d, want 0/5", item, k)
	}
	h.Push(2, 5) // equal to the last pop: allowed
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Push below the last popped key did not panic")
			}
		}()
		h.Push(3, 4)
	}()
	if h.Contains(3) || h.Len() != 2 {
		t.Fatalf("panicking Push changed the queue: Contains(3) %v, Len %d", h.Contains(3), h.Len())
	}
	h.Reset()
	h.Push(3, 4)
	if item, k := h.Pop(); item != 3 || k != 4 {
		t.Fatalf("Pop after Reset = %d/%d, want 3/4", item, k)
	}
}

// FuzzHeapMatchesSpec is TestHeapMatchesSpec with the operations decoded
// from the fuzz input under the same monotone rule. The first two bytes set
// the universe (up to 2^13 items, two trie levels); then each three-byte
// group is one operation, up to 1,024 of them: a selector, an item byte and
// a key byte. A key byte below 128 is a step of 0–7 above the floor, so ties
// dominate; one at 128 or above is a step of bit length up to 63.
func FuzzHeapMatchesSpec(f *testing.F) {
	f.Add([]byte{0, 8, 0, 1, 2, 0, 3, 2, 4, 0, 0, 1, 5, 0})
	f.Add([]byte{255, 31, 0, 200, 255, 1, 7, 130, 4, 0, 0, 2, 9, 0, 6, 1, 3, 7, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := newSpecCheck(t, 1+int(data[0])|int(data[1]&31)<<8)
		for i := 2; i+2 < min(len(data), 2+3*1024); i += 3 {
			sel, a, b := data[i], int(data[i+1]), data[i+2]
			item := (a*257 + int(b)) % c.h.Cap()
			switch sel % 8 {
			case 0, 1, 2, 3:
				var key int64
				switch {
				case !c.popped:
					key = int64(int8(b)) << (a % 56)
				case b < 128:
					key = above(c.floor, int64(b&7))
				default:
					key = above(c.floor, int64(1)<<(b&63)-1)
				}
				c.push(item, key)
			case 4, 5:
				c.pop()
			case 6:
				c.grow(c.h.Cap() + a)
			default:
				if b&1 == 0 {
					c.reset()
				} else {
					c.contains(item)
				}
			}
		}
		c.drain()
	})
}

// TestGrowPrecapsEntries checks that Grow sizes the entry array to the new
// universe, so the first fill of a heap grown from a small New allocates
// nothing. The count is taken around that single fill, because
// testing.AllocsPerRun's warm-up run would absorb the growth; as Mallocs is
// process-wide, the least of three fresh heaps is the witness.
func TestGrowPrecapsEntries(t *testing.T) {
	least := ^uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		h := New(4)
		h.Push(1, 3)
		h.Grow(5000)
		if h.Cap() != 5000 || !h.Contains(1) {
			t.Fatalf("Grow: Cap %d, Contains(1) %v", h.Cap(), h.Contains(1))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5000; i++ {
			h.Push(i, int64(5000-i))
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		if item, k := h.Pop(); item != 4999 || k != 1 {
			t.Fatalf("Pop = %d/%d, want 4999/1", item, k)
		}
	}
	if least != 0 {
		t.Fatalf("first fill of a grown heap allocated %d times", least)
	}
}

// TestGrowBytes pins the queue's footprint: Grow(n) on a zero Heap
// allocates 16 bytes per item (a key and two int32 list links) plus the
// trie's words, within the allocator's page rounding, and leaves the zero
// Heap usable. TotalAlloc is process-wide, so the least of three fresh
// heaps is the witness.
func TestGrowBytes(t *testing.T) {
	const n = 1 << 16
	trieWords := 0
	for w := n; trieWords == 0 || w > 1; {
		w = (w + 63) / 64
		trieWords += w
	}
	want := uint64(16*n + 8*trieWords)
	least := ^uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		var h Heap
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.Grow(n)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		h.Push(n-1, 5)
		h.Push(7, 5)
		if item, k := h.Pop(); item != 7 || k != 5 || h.Len() != 1 || !h.Contains(n-1) {
			t.Fatalf("zero Heap after Grow: Pop = %d/%d, Len %d", item, k, h.Len())
		}
	}
	if least < want || least > want+want/64 {
		t.Fatalf("Grow(%d) allocated %d bytes, want %d (16 per item plus %d trie words) within 1/64", n, least, want, trieWords)
	}
}
