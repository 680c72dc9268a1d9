// Package cancel provides the solver's cooperative-cancellation primitive:
// a Canceller that hot loops poll with a counter-strided channel check, so
// the common (not-yet-cancelled) case costs one predictable branch and no
// atomics, and the nil Canceller is a free no-op (mirroring the obs
// nil-sink contract). core.SolveCtx derives a Canceller from its context —
// a context that can never be done (context.Background) yields nil, making
// the plain Solve path provably overhead-free.
//
// Cancellers are pooled: New draws from a sync.Pool and Release returns to
// it, so a steady-state SolveCtx allocates nothing for cancellation (the
// bench guard's SolveCtxN60K3 twin pins this).
//
// A Canceller is single-goroutine state: one solve runs on one goroutine
// and polls one Canceller; sharing one across goroutines is a data race.
package cancel

import (
	"context"
	"errors"
	"sync"
)

// ErrCancelled is the sentinel kernels return when a Canceller stopped them
// mid-run. The solver translates it into a degraded-but-feasible result or
// core.ErrNoProgress; it never escapes the core API.
var ErrCancelled = errors.New("cancel: cancelled")

// DefaultPollStride is the default number of Poll calls between channel
// checks. At typical kernel iteration costs (tens of ns) this bounds
// cancellation latency well under a millisecond while keeping the per-
// iteration cost to one counter increment and branch.
const DefaultPollStride = 1024

// Canceller is the poll target threaded through the solve pipeline. The
// zero value is unusable; obtain one from New, and Release it when the
// solve finishes. A nil *Canceller is valid everywhere and never
// reports cancellation.
type Canceller struct {
	done    <-chan struct{}
	stride  uint32
	n       uint32
	stopped bool
}

var pool = sync.Pool{New: func() any { return new(Canceller) }}

// New derives a Canceller from ctx, polling the context's done channel
// every stride Poll calls (stride ≤ 0 selects DefaultPollStride). Contexts
// that can never be cancelled (Done() == nil, e.g. context.Background)
// yield nil — the free no-op Canceller.
func New(ctx context.Context, stride int) *Canceller {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	if stride <= 0 {
		stride = DefaultPollStride
	}
	c := pool.Get().(*Canceller)
	if c == nil { // pool.New always yields a value; keep the invariant local
		c = new(Canceller)
	}
	c.done = done
	c.stride = uint32(stride)
	c.n = 0
	c.stopped = false
	return c
}

// Release returns c to the pool. Safe on nil. The caller must not use c
// after Release.
func (c *Canceller) Release() {
	if c == nil {
		return
	}
	c.done = nil
	pool.Put(c)
}

// Poll is the hot-loop cancellation probe: it checks the done channel once
// every stride calls and reports whether the Canceller has stopped. After
// the first true, every subsequent call is true without touching the
// channel. Nil-safe (always false).
func (c *Canceller) Poll() bool {
	if c == nil {
		return false
	}
	if c.stopped {
		return true
	}
	c.n++
	if c.n < c.stride {
		return false
	}
	c.n = 0
	return c.Check()
}

// Check probes the done channel immediately (no stride), latching stopped.
// Coarse loop boundaries — once per cancellation iteration, once per budget
// escalation — use it for tight cancellation latency at negligible cost.
// Nil-safe (always false).
func (c *Canceller) Check() bool {
	if c == nil {
		return false
	}
	if c.stopped {
		return true
	}
	select {
	case <-c.done:
		c.stopped = true
		return true
	default:
		return false
	}
}

// Stopped reports whether a previous Poll/Check/Trip observed cancellation,
// without touching the channel. Callers use it after a kernel returns a
// no-verdict to distinguish cancellation from budget exhaustion. Nil-safe.
func (c *Canceller) Stopped() bool {
	return c != nil && c.stopped
}

// Trip latches the Canceller stopped without any channel involved — the
// deterministic "deadline fired" lever used by fault injection (the
// fault.PointCancel site) and tests. Nil-safe no-op.
func (c *Canceller) Trip() {
	if c != nil {
		c.stopped = true
	}
}
