package solvecache

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fpInstance builds a small instance with a controllable edge insertion
// order: perm[i] gives the position in the canonical edge list of the i-th
// edge inserted.
func fpInstance(t *testing.T, perm []int) graph.Instance {
	t.Helper()
	edges := [][4]int64{
		{0, 1, 1, 10},
		{1, 3, 1, 10},
		{0, 2, 5, 1},
		{2, 3, 5, 1},
		{0, 3, 3, 5},
		{0, 3, 3, 5}, // deliberate parallel duplicate: multiset hashing must keep it
	}
	g := graph.New(4)
	for _, i := range perm {
		e := edges[i]
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2], e[3])
	}
	return graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 10}
}

func TestFingerprintCanonical(t *testing.T) {
	base := fpInstance(t, []int{0, 1, 2, 3, 4, 5})
	want := Fingerprint(base, "", 0)

	// Insertion order must not matter.
	for _, perm := range [][]int{
		{5, 4, 3, 2, 1, 0},
		{2, 0, 5, 1, 4, 3},
	} {
		if got := Fingerprint(fpInstance(t, perm), "", 0); got != want {
			t.Fatalf("permutation %v: fingerprint %v != %v", perm, got, want)
		}
	}

	// Clones hash identically.
	clone := base
	clone.G = base.G.Clone()
	if got := Fingerprint(clone, "", 0); got != want {
		t.Fatalf("clone fingerprint %v != %v", got, want)
	}

	// Edge direction is part of the key: the same graph with edge 2
	// reversed and negated (as in a residual graph) hashes differently,
	// and the untouched clone still matches.
	flipped := base
	flipped.G = graph.New(base.G.NumNodes())
	for _, e := range base.G.EdgesView() {
		if e.ID == 2 {
			flipped.G.AddEdge(e.To, e.From, -e.Cost, -e.Delay)
		} else {
			flipped.G.AddEdge(e.From, e.To, e.Cost, e.Delay)
		}
	}
	if got := Fingerprint(flipped, "", 0); got == want {
		t.Fatal("flipped graph must hash differently (edge reversed and negated)")
	}
	if got := Fingerprint(clone, "", 0); got != want {
		t.Fatalf("clone fingerprint after building the flipped copy %v != %v", got, want)
	}

	// A weight-edit round trip restores the edge tuple and the fingerprint.
	e := clone.G.Edge(2)
	clone.G.SetEdgeWeights(2, e.Cost+1, e.Delay)
	if got := Fingerprint(clone, "", 0); got == want {
		t.Fatal("reweighted graph must hash differently")
	}
	clone.G.SetEdgeWeights(2, e.Cost, e.Delay)
	if got := Fingerprint(clone, "", 0); got != want {
		t.Fatalf("weight round trip fingerprint %v != %v", got, want)
	}

	// The wire format round trip is canonical too.
	var buf bytes.Buffer
	if err := graph.WriteInstance(&buf, base); err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(parsed, "", 0); got != want {
		t.Fatalf("serialized round trip fingerprint %v != %v", got, want)
	}

	// The Name label is display-only.
	named := base
	named.Name = "some label"
	if got := Fingerprint(named, "", 0); got != want {
		t.Fatalf("name changed the fingerprint: %v != %v", got, want)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := fpInstance(t, []int{0, 1, 2, 3, 4, 5})
	want := Fingerprint(base, "", 0)
	mutate := func(name string, f func(ins *graph.Instance)) {
		ins := base
		ins.G = base.G.Clone()
		f(&ins)
		if got := Fingerprint(ins, "", 0); got == want {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	mutate("cost", func(ins *graph.Instance) { ins.G.SetEdgeWeights(0, 2, 10) })
	mutate("delay", func(ins *graph.Instance) { ins.G.SetEdgeWeights(0, 1, 11) })
	mutate("k", func(ins *graph.Instance) { ins.K = 3 })
	mutate("bound", func(ins *graph.Instance) { ins.Bound = 11 })
	mutate("terminals", func(ins *graph.Instance) { ins.S, ins.T = 1, 2 })
	mutate("extra edge", func(ins *graph.Instance) { ins.G.AddEdge(1, 2, 1, 1) })
	// One duplicate removed must change the hash (multiset, not set).
	smaller := fpInstance(t, []int{0, 1, 2, 3, 4})
	if got := Fingerprint(smaller, "", 0); got == want {
		t.Error("dropping a parallel duplicate left the fingerprint unchanged")
	}
	// Variant and eps are part of the key.
	if got := Fingerprint(base, "scaled", 0.25); got == want {
		t.Error("variant/eps not folded into the fingerprint")
	}
	if Fingerprint(base, "scaled", 0.25) == Fingerprint(base, "scaled", 0.5) {
		t.Error("eps not folded into the fingerprint")
	}
	if Fingerprint(base, "phase1", 0) == Fingerprint(base, "", 0) {
		t.Error("variant not folded into the fingerprint")
	}
}

// TestFingerprintGoldenFigure1 pins the canonical hash of the paper's
// Figure 1 instance. If this test starts failing, the canonicalization
// changed: every cached entry and every ring placement in a mixed-version
// cluster is invalidated, so treat it as a wire-format break, not a test to
// update casually.
func TestFingerprintGoldenFigure1(t *testing.T) {
	ins, _, err := gen.Figure1(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	const want = "e1628e711e1497ef8feffed953afaf4b"
	if got := Fingerprint(ins, "", 0).String(); got != want {
		t.Fatalf("gen.Figure1(3,4) fingerprint = %s, want pinned %s", got, want)
	}
}

func TestFingerprintZeroAlloc(t *testing.T) {
	ins, _, err := gen.Figure1(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sink FP
	if allocs := testing.AllocsPerRun(100, func() {
		sink = Fingerprint(ins, "scaled", 0.25)
	}); allocs != 0 {
		t.Fatalf("Fingerprint allocates %v per run, want 0", allocs)
	}
	_ = sink
}

func fpOf(i uint64) FP { return FP{Hi: i, Lo: ^i} }

func TestCacheLRU(t *testing.T) {
	c := NewCache[int](2, 0)
	c.Put(fpOf(1), 100, 0)
	c.Put(fpOf(2), 200, 1)
	if v, st := c.Get(fpOf(1), 2); st != Fresh || v != 100 {
		t.Fatalf("get 1 = %d/%v", v, st)
	}
	// 1 is now MRU; inserting 3 evicts 2.
	c.Put(fpOf(3), 300, 3)
	if _, st := c.Get(fpOf(2), 4); st != Miss {
		t.Fatalf("2 should have been evicted, got %v", st)
	}
	if v, st := c.Get(fpOf(1), 5); st != Fresh || v != 100 {
		t.Fatalf("1 lost: %d/%v", v, st)
	}
	if v, st := c.Get(fpOf(3), 6); st != Fresh || v != 300 {
		t.Fatalf("3 lost: %d/%v", v, st)
	}
	// Overwrite in place.
	c.Put(fpOf(3), 333, 7)
	if v, _ := c.Get(fpOf(3), 8); v != 333 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheTTL(t *testing.T) {
	c := NewCache[string](4, 100)
	c.Put(fpOf(1), "v", 1000)
	if _, st := c.Get(fpOf(1), 1050); st != Fresh {
		t.Fatalf("within TTL: %v", st)
	}
	if v, st := c.Get(fpOf(1), 1200); st != Stale || v != "v" {
		t.Fatalf("past TTL: %q/%v, want stale value", v, st)
	}
	// A fresh Put restarts the freshness clock.
	c.Put(fpOf(1), "v2", 1200)
	if v, st := c.Get(fpOf(1), 1250); st != Fresh || v != "v2" {
		t.Fatalf("after re-put: %q/%v", v, st)
	}
	if Fresh.String() != "hit" || Stale.String() != "stale" || Miss.String() != "miss" {
		t.Fatal("State strings are part of the response contract")
	}
}

// TestCacheTTLBoundary pins the strict inequality of the staleness
// decision, which Get now computes under the lock (the former lock-free
// read of c.ttl after Unlock was flagged by lockcheck): an entry aged
// exactly ttl is still Fresh, one nanosecond more is Stale, and ttl ≤ 0
// never goes stale.
func TestCacheTTLBoundary(t *testing.T) {
	c := NewCache[string](2, 100)
	c.Put(fpOf(1), "v", 1000)
	if _, st := c.Get(fpOf(1), 1100); st != Fresh {
		t.Fatalf("age == ttl: %v, want hit", st)
	}
	if _, st := c.Get(fpOf(1), 1101); st != Stale {
		t.Fatalf("age == ttl+1: %v, want stale", st)
	}
	forever := NewCache[string](2, 0)
	forever.Put(fpOf(1), "v", 0)
	if _, st := forever.Get(fpOf(1), 1<<62); st != Fresh {
		t.Fatalf("ttl 0 must never go stale: %v", st)
	}
}

// TestCacheConcurrentChurn is the race-regression guard for the guarded
// fields: readers, writers and removers hammer overlapping fingerprints
// while every Get must observe a consistent (value, state) pair — the
// value always matches the fingerprint it was stored under. Run under
// -race this also proves the staleness computation stays inside the
// critical section.
func TestCacheConcurrentChurn(t *testing.T) {
	c := NewCache[uint64](8, 50)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (seed + uint64(i)) % 16
				fp := fpOf(k)
				switch i % 4 {
				case 0:
					c.Put(fp, k, int64(i))
				case 1:
					if v, st := c.Get(fp, int64(i)); st != Miss && v != k {
						t.Errorf("fp %d returned value %d", k, v)
						return
					}
				case 2:
					c.Remove(fp)
				default:
					c.Len()
				}
			}
		}(uint64(w) * 5)
	}
	wg.Wait()
}

func TestCacheRemoveAndNil(t *testing.T) {
	c := NewCache[int](2, 0)
	c.Put(fpOf(1), 1, 0)
	c.Remove(fpOf(1))
	if _, st := c.Get(fpOf(1), 1); st != Miss {
		t.Fatalf("after remove: %v", st)
	}
	c.Remove(fpOf(9)) // no-op
	var nilc *Cache[int]
	if _, st := nilc.Get(fpOf(1), 0); st != Miss {
		t.Fatal("nil cache must miss")
	}
	nilc.Put(fpOf(1), 1, 0)
	nilc.Remove(fpOf(1))
	if nilc.Len() != 0 {
		t.Fatal("nil cache len")
	}
	if NewCache[int](0, 0) != nil {
		t.Fatal("capacity 0 must return the disabled cache")
	}
}

// TestCacheSteadyStateAllocs: once entries recycle through the freelist,
// the Get-miss → Put → Remove churn the cache-miss solve path performs
// allocates nothing.
func TestCacheSteadyStateAllocs(t *testing.T) {
	c := NewCache[int](8, 0)
	fp := fpOf(42)
	c.Put(fp, 1, 0)
	c.Remove(fp)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, st := c.Get(fp, 0); st != Miss {
			t.Fatal("expected miss")
		}
		c.Put(fp, 7, 0)
		c.Remove(fp)
	}); allocs != 0 {
		t.Fatalf("steady-state churn allocates %v per run, want 0", allocs)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	g := NewGroup[int]()
	const waiters = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var collapsedCount, leaderRuns int
	var wg sync.WaitGroup
	fp := fpOf(1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, collapsed := g.Do(fp, func() (int, error) {
			close(entered)
			<-release
			mu.Lock()
			leaderRuns++
			mu.Unlock()
			return 99, nil
		})
		if v != 99 || err != nil || collapsed {
			t.Errorf("leader got %d/%v/%v", v, err, collapsed)
		}
	}()
	<-entered
	var about atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			about.Add(1)
			v, err, collapsed := g.Do(fp, func() (int, error) {
				t.Error("waiter ran the solve")
				return 0, nil
			})
			if v != 99 || err != nil {
				t.Errorf("waiter got %d/%v", v, err)
			}
			if collapsed {
				mu.Lock()
				collapsedCount++
				mu.Unlock()
			}
		}()
	}
	// The leader is parked inside fn until release closes, so any waiter
	// that reaches Do before then collapses. Wait until all eight are one
	// step from Do, give the scheduler a generous margin, then release.
	for about.Load() != waiters {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if leaderRuns != 1 {
		t.Fatalf("leader ran %d times", leaderRuns)
	}
	if collapsedCount != waiters {
		t.Fatalf("collapsed %d of %d waiters", collapsedCount, waiters)
	}
	// After completion the key is free again: a new Do runs fresh.
	v, err, collapsed := g.Do(fp, func() (int, error) { return 7, nil })
	if v != 7 || err != nil || collapsed {
		t.Fatalf("post-flight Do = %d/%v/%v", v, err, collapsed)
	}
}

func TestSingleflightLeaderPanic(t *testing.T) {
	g := NewGroup[int]()
	fp := fpOf(2)
	entered := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the leader's own panic boundary
		g.Do(fp, func() (int, error) {
			close(entered)
			//lint:allow nopanic test simulates a panicking solve behind the singleflight leader
			panic("injected solver panic")
		})
	}()
	<-entered
	go func() {
		_, err, _ := g.Do(fp, func() (int, error) { return 0, nil })
		waiterDone <- err
	}()
	// The waiter either collapsed onto the dying leader (ErrLeaderFailed)
	// or arrived after cleanup and ran fn itself (nil). Both are sound;
	// hanging forever is the failure mode this guards against.
	if err := <-waiterDone; err != nil && err != ErrLeaderFailed {
		t.Fatalf("waiter err = %v", err)
	}
}

func TestNilGroup(t *testing.T) {
	var g *Group[int]
	v, err, collapsed := g.Do(fpOf(1), func() (int, error) { return 5, nil })
	if v != 5 || err != nil || collapsed {
		t.Fatalf("nil group Do = %d/%v/%v", v, err, collapsed)
	}
}

func TestFPString(t *testing.T) {
	fp := FP{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if got := fp.String(); got != "0123456789abcdeffedcba9876543210" {
		t.Fatalf("String() = %q", got)
	}
	if (FP{}).Key64() == fp.Key64() {
		t.Fatal("Key64 collision on trivially different fingerprints")
	}
}
