package pq

import (
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

// TestHeapMatchesReference drives the inline-key Heap and the swap heap it
// replaced (ref_test.go) through the same random operation sequences and
// requires the same (item, key) from every Pop. Keys come from small ranges
// so ties dominate, which is where a sift that compared differently would
// pop a different item. Sequences mix new pushes, decreases, increases and
// equal-key updates, pops, Reset and Grow (including Grow with items
// queued).
func TestHeapMatchesReference(t *testing.T) {
	const sequences, ops = 20000, 400
	r := rand.New(rand.NewSource(1))
	for seq := 0; seq < sequences; seq++ {
		n := 1 + r.Intn(64)
		keyRange := 1 + r.Intn(8)
		h, ref := New(n), newRef(n)
		for op := 0; op < ops; op++ {
			switch x := r.Intn(100); {
			case x < 55:
				item, key := r.Intn(n), int64(r.Intn(keyRange))
				h.Push(item, key)
				ref.Push(item, key)
			case x < 93:
				if h.Len() != ref.Len() {
					t.Fatalf("seq %d op %d: Len %d, reference %d", seq, op, h.Len(), ref.Len())
				}
				if h.Len() == 0 {
					continue
				}
				gi, gk := h.Pop()
				wi, wk := ref.Pop()
				if gi != wi || gk != wk {
					t.Fatalf("seq %d op %d: Pop = (%d, %d), reference (%d, %d)", seq, op, gi, gk, wi, wk)
				}
			case x < 96:
				n += r.Intn(8)
				h.Grow(n)
				ref.Grow(n)
			case x < 98:
				h.Reset()
				ref.Reset()
			default:
				item := r.Intn(n)
				if h.Contains(item) != ref.Contains(item) {
					t.Fatalf("seq %d op %d: Contains(%d) = %v, reference %v", seq, op, item, h.Contains(item), ref.Contains(item))
				}
			}
		}
		for ref.Len() > 0 {
			gi, gk := h.Pop()
			wi, wk := ref.Pop()
			if gi != wi || gk != wk {
				t.Fatalf("seq %d drain: Pop = (%d, %d), reference (%d, %d)", seq, gi, gk, wi, wk)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("seq %d: %d items left after the reference drained", seq, h.Len())
		}
	}
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
