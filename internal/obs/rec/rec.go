// Package rec is the solver's flight recorder: a fixed-capacity,
// preallocated ring buffer of structured algorithm events — phase
// transitions, Lagrangian λ-iterations with their duality gap,
// augmentation rounds, cycle-cancellation steps, C_ref escalations,
// degradation decisions, and armed fault-point hits. Where the metrics
// registry (package obs) answers "how many / how long" in aggregate, the
// recorder answers "what did THIS solve do, in what order" — the
// convergence trajectory an engineer needs to tune ε, kernels, and
// warm-start strategies, and the black box krspd dumps when a solve
// degrades or dies.
//
// Two contracts mirror the obs registry:
//
//   - The nil recorder is free. Every method tolerates a nil receiver;
//     Record on a nil *Recorder is a single branch — zero allocations,
//     zero atomics — so solver code records unconditionally and a solve
//     with core.Options.Recorder unset pays only dead nil checks
//     (bench-twin-guarded in `make bench-guard`).
//   - The armed record path never allocates. The ring is preallocated at
//     construction; Record writes one fixed-size Event value into the next
//     slot and bumps an atomic sequence counter (verified by the
//     //krsp:noalloc contract and an AllocsPerRun test).
//
// Events carry a Kind from the catalogue (catalogue.go), a timestamp from
// the injected obs.Clock, and up to four int64 arguments whose meaning the
// catalogue names. When the ring wraps, the oldest events are overwritten
// — a flight recorder keeps the most recent history, which is the part
// that explains a degraded or crashed solve.
//
// Record is meant to be called from the serial points of the solve
// pipeline (the same discipline as fault injection sites); it is not a
// general concurrent event bus. DESIGN.md §13 documents the architecture
// and the event schema.
package rec

import (
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: enough for the full trajectory of mid-size solves while
// keeping a pooled recorder under ~200 KiB.
const DefaultCapacity = 4096

// Event is one recorded algorithm event. It is a fixed-size value type —
// recording one never allocates. Args are interpreted per Kind; the
// catalogue names them (see Kind.Info).
type Event struct {
	// Seq is the global sequence number of the event (0-based, monotone
	// across ring wraps — Seq differences count dropped events).
	Seq uint64
	// T is the recorder clock reading in nanoseconds. Only differences are
	// meaningful; with a zero clock every event reads 0.
	T int64
	// Kind identifies the event in the catalogue.
	Kind Kind
	// Args are the kind-specific payload values.
	Args [4]int64
}

// Recorder is the fixed-capacity ring buffer. Construct with New; the nil
// recorder is a free no-op sink.
type Recorder struct {
	clock obs.Clock
	buf   []Event
	mask  uint64
	seq   atomic.Uint64
}

// New builds a recorder with the given ring capacity (rounded up to a
// power of two; non-positive means DefaultCapacity). A nil clock freezes
// timestamps at zero, which keeps unit tests deterministic while
// preserving event order through Seq.
func New(clock obs.Clock, capacity int) *Recorder {
	if clock == nil {
		clock = zeroClock{}
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{clock: clock, buf: make([]Event, size), mask: uint64(size - 1)}
}

// zeroClock mirrors the obs registry's frozen default clock.
type zeroClock struct{}

func (zeroClock) Now() int64 { return 0 }

// Record appends one event to the ring, overwriting the oldest when full.
// Nil-safe: a nil recorder records nothing at the cost of one branch.
//
//krsp:noalloc
func (r *Recorder) Record(k Kind, a0, a1, a2, a3 int64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1) - 1
	//lint:allow contracts Clock implementations (ManualClock atomic load, RealClock runtime nanotime) do not allocate; interface dispatch is opaque to the checker
	r.buf[seq&r.mask] = Event{Seq: seq, T: r.clock.Now(), Kind: k, Args: [4]int64{a0, a1, a2, a3}}
}

// Len returns the number of events currently held (≤ Cap). Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.seq.Load()
	if n > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(n)
}

// Cap returns the ring capacity. Nil-safe.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded (including overwritten
// ones). Nil-safe.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns how many events the ring has overwritten. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.seq.Load()
	if n <= uint64(len(r.buf)) {
		return 0
	}
	return n - uint64(len(r.buf))
}

// Events returns a copy of the held events in recording order (oldest
// first). It allocates and is meant for the dump/analysis edge, never the
// solve path. Nil-safe (nil slice).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	if n == 0 {
		return nil
	}
	size := uint64(len(r.buf))
	out := make([]Event, 0, min(n, size))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	for s := start; s < n; s++ {
		out = append(out, r.buf[s&r.mask])
	}
	return out
}

// Reset discards all held events, keeping the ring allocation. The
// recorder can then be reused for a new solve (krspd pools recorders per
// request). Nil-safe.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.seq.Store(0)
}
