package solvecache

import (
	"errors"
	"sync"
)

// State classifies a cache lookup.
type State int

const (
	// Miss: no entry for the fingerprint.
	Miss State = iota
	// Fresh: an entry exists and is within its TTL.
	Fresh
	// Stale: an entry exists but its TTL has lapsed. Stale entries are NOT
	// evicted on read — krspd's graceful-degradation path serves them
	// (flagged "stale": true) when a fresh solve cannot fit the deadline.
	Stale
)

func (s State) String() string {
	switch s {
	case Fresh:
		return "hit"
	case Stale:
		return "stale"
	}
	return "miss"
}

// Cache is a fingerprint-keyed LRU of solved results with TTL-based
// staleness. The nil *Cache is a disabled cache: Get always misses and Put
// is a no-op, so callers wire it unconditionally. All methods are safe for
// concurrent use.
//
// Evicted and removed entries return to a freelist and are reused by the
// next Put, so a full cache serves arbitrary churn with zero steady-state
// allocations on the solve path.
type Cache[V any] struct {
	mu sync.Mutex
	//krsp:guardedby(mu)
	cap int
	//krsp:guardedby(mu)
	ttl int64 // ns; ≤ 0 means entries never go stale
	//krsp:guardedby(mu)
	entries map[FP]*entry[V]
	// Doubly-linked LRU list threaded through the entries; head is the most
	// recently used. The list is circular through a fixed sentinel root so
	// insertion and removal are branch-free.
	//krsp:guardedby(mu)
	root entry[V]
	//krsp:guardedby(mu)
	free *entry[V]
}

type entry[V any] struct {
	fp         FP
	v          V
	stored     int64
	prev, next *entry[V]
}

// NewCache builds an LRU solution cache holding up to capacity entries;
// entries older than ttlNs nanoseconds are reported Stale (ttlNs ≤ 0
// disables staleness). A capacity ≤ 0 returns nil — the disabled cache.
func NewCache[V any](capacity int, ttlNs int64) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	c := &Cache[V]{cap: capacity, ttl: ttlNs, entries: make(map[FP]*entry[V], capacity)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get looks up fp at monotonic time now, promoting a found entry to most
// recently used. The value is returned for both Fresh and Stale states;
// the caller decides whether a stale answer is acceptable. ageNs is now
// minus the entry's last Put time (0 on a Miss).
func (c *Cache[V]) Get(fp FP, now int64) (v V, st State, ageNs int64) {
	if c == nil {
		return v, Miss, 0
	}
	c.mu.Lock()
	e, ok := c.entries[fp]
	if !ok {
		c.mu.Unlock()
		return v, Miss, 0
	}
	c.unlink(e)
	c.pushFront(e)
	// Staleness is decided under the lock: c.ttl is guarded state, and
	// reading it after Unlock would race a concurrent reconfiguration.
	v, ageNs = e.v, now-e.stored
	stale := c.ttl > 0 && ageNs > c.ttl
	c.mu.Unlock()
	if stale {
		return v, Stale, ageNs
	}
	return v, Fresh, ageNs
}

// Put stores v under fp with storage time now, evicting the least recently
// used entry when full. An existing entry is overwritten in place (and its
// freshness clock restarted).
func (c *Cache[V]) Put(fp FP, v V, now int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok {
		e.v, e.stored = v, now
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		return
	}
	var e *entry[V]
	if len(c.entries) >= c.cap {
		e = c.root.prev // LRU victim
		c.unlink(e)
		delete(c.entries, e.fp)
	} else if c.free != nil {
		e = c.free
		c.free = e.next
	} else {
		e = new(entry[V])
	}
	e.fp, e.v, e.stored = fp, v, now
	c.entries[fp] = e
	c.pushFront(e)
	c.mu.Unlock()
}

// Remove deletes the entry for fp, recycling it onto the freelist.
func (c *Cache[V]) Remove(fp FP) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok {
		c.unlink(e)
		delete(c.entries, fp)
		var zero V
		e.v = zero // drop the reference for the GC
		e.next, c.free = c.free, e
	}
	c.mu.Unlock()
}

// Len reports the number of cached entries (fresh and stale).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// unlink detaches e from the LRU list.
//
//krsp:locked(mu)
func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushFront inserts e at the most-recently-used head.
//
//krsp:locked(mu)
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// ErrLeaderFailed is delivered to singleflight waiters whose leader died
// without producing a result (a panicking solve unwound through Do). The
// waiters' requests fail cleanly instead of hanging or re-panicking.
var ErrLeaderFailed = errors.New("solvecache: singleflight leader failed without a result")

// Group collapses concurrent solves of the same fingerprint: the first
// caller (the leader) runs fn, every concurrent duplicate blocks and
// receives the leader's result. The nil *Group is a disabled group that
// just runs fn. Collapsed waiters double as overload shedding — each one is
// a solve that never entered the solver.
type Group[V any] struct {
	mu sync.Mutex
	//krsp:guardedby(mu)
	m map[FP]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
}

// NewGroup builds a singleflight group.
func NewGroup[V any]() *Group[V] { return &Group[V]{m: make(map[FP]*flightCall[V])} }

// Do runs fn under fp, collapsing concurrent duplicates. collapsed reports
// whether this call waited on another in-flight solve instead of running
// fn itself. If the leader panics, the panic propagates to the leader's
// caller (krspd's recover middleware) and waiters receive ErrLeaderFailed.
func (g *Group[V]) Do(fp FP, fn func() (V, error)) (v V, err error, collapsed bool) {
	if g == nil {
		v, err = fn()
		return v, err, false
	}
	g.mu.Lock()
	if c, ok := g.m[fp]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.v, c.err, true
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.m[fp] = c
	g.mu.Unlock()

	done := false
	defer func() {
		if !done {
			c.err = ErrLeaderFailed
		}
		g.mu.Lock()
		delete(g.m, fp)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.v, c.err = fn()
	done = true
	return c.v, c.err, false
}
