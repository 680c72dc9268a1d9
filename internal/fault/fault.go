// Package fault is a seeded, deterministic failpoint registry for the
// solver: named injection sites on the solve path consult it and, when the
// site is armed, receive an injected error, panic, or hook result. The nil
// *Registry is a free no-op — the same contract the obs nil-sink and the
// cancel nil-Canceller follow — so production solves carry no cost and no
// code path differences.
//
// Determinism: probabilistic arming draws from a rand.Rand seeded at New,
// guarded by a mutex, so a given seed and call sequence trips the same
// sites in the same order on every run. The solver's injection sites sit
// at serial points of a solve, which runs on one goroutine: core's
// cancellation loop (the cancel, cycle-search and residual-update seams)
// and the LP engine's rounding step. An injected panic there unwinds to
// the caller's recover boundary.
//
// The chaos soak test (internal/core) and the krspd overload tests are the
// consumers; see DESIGN.md §10 for the failpoint catalogue.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected is the root of every injected error; sites wrap it with the
// point name. Callers distinguish injected failures with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Point names one injection site on the solve path.
type Point int

const (
	// PointResidualUpdate fires in the cancellation loop where the
	// incremental residual update would run; a trip simulates an update
	// failure and forces a full rebuild.
	PointResidualUpdate Point = iota
	// PointCycleSearch fires in the cancellation loop right before each
	// bicameral.Find call; an error trip skips the call and treats the
	// search as not-found (exercising the C_ref escalation and phase-1
	// fallback), a panic trip exercises recover boundaries.
	PointCycleSearch
	// PointLPRound fires in the LP engine's rounding step; a trip discards
	// the round's candidates.
	PointLPRound
	// PointCancel fires at the top of the cancellation loop; a trip is
	// translated into Canceller.Trip — the deterministic "deadline fired"
	// lever that lets tests exercise degraded results without wall-clock
	// deadlines.
	PointCancel
	// PointProxyDial fires in krspd's cluster proxy just before a request
	// is sent to a peer; an error trip simulates a connection failure to
	// the owner (dead peer, partition) without touching real sockets, and a
	// blocking ArmFunc hook holds the attempt in flight so tests drive the
	// hedge and retry paths deterministically.
	PointProxyDial
	// PointProxyRead fires after a peer response arrives, before its body
	// is decoded; a trip simulates a mid-response failure (peer died while
	// streaming, truncated body) and exercises the retry-on-5xx/IO path.
	PointProxyRead
	// NumPoints bounds the Point enum.
	NumPoints
)

func (p Point) String() string {
	switch p {
	case PointResidualUpdate:
		return "residual-update"
	case PointCycleSearch:
		return "cycle-search"
	case PointLPRound:
		return "lp-round"
	case PointCancel:
		return "cancel"
	case PointProxyDial:
		return "proxy-dial"
	case PointProxyRead:
		return "proxy-read"
	}
	return fmt.Sprintf("point-%d", int(p))
}

type mode int

const (
	modeOff mode = iota
	modeError
	modePanic
	modeFunc
)

type site struct {
	mode  mode
	prob  float64
	fn    func() error
	trips int64
}

// Registry holds the armed failpoints. Safe for concurrent Check calls
// (sites are consulted from whatever goroutine runs the serial pipeline,
// and tests may arm/disarm concurrently with running solves).
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites [NumPoints]site
}

// New returns a registry whose probabilistic trips draw from the given
// seed.
func New(seed int64) *Registry {
	return &Registry{rng: rand.New(rand.NewSource(seed))}
}

// Arm sets point p to inject an error with the given probability per Check
// (1.0 = every time).
func (r *Registry) Arm(p Point, prob float64) { r.arm(p, site{mode: modeError, prob: prob}) }

// ArmPanic sets point p to panic with the given probability per Check. The
// panic value wraps ErrInjected so recover boundaries can attribute it.
// Panic mode exists to exercise recover boundaries (cmd/krspd); arming it
// on a bare library solve will propagate to the caller by design.
func (r *Registry) ArmPanic(p Point, prob float64) { r.arm(p, site{mode: modePanic, prob: prob}) }

// ArmFunc sets point p to call fn on every Check and inject whatever it
// returns (nil = no injection). fn runs outside the registry lock, so it
// may block — the krspd overload test uses a blocking hook to hold a solve
// in flight deterministically.
func (r *Registry) ArmFunc(p Point, fn func() error) { r.arm(p, site{mode: modeFunc, fn: fn}) }

// Disarm turns point p off, preserving its trip count.
func (r *Registry) Disarm(p Point) {
	r.mu.Lock()
	trips := r.sites[p].trips
	r.sites[p] = site{trips: trips}
	r.mu.Unlock()
}

func (r *Registry) arm(p Point, s site) {
	r.mu.Lock()
	s.trips = r.sites[p].trips
	r.sites[p] = s
	r.mu.Unlock()
}

// InjectedPanic is the value thrown by panic-mode trips.
type InjectedPanic struct{ Point Point }

func (ip InjectedPanic) Error() string { return "fault: injected panic at " + ip.Point.String() }

// Unwrap ties InjectedPanic into the ErrInjected tree for recover
// boundaries that inspect the panic value as an error.
func (ip InjectedPanic) Unwrap() error { return ErrInjected }

// Check consults point p: nil-registry and unarmed sites return nil for
// free; an armed site trips according to its mode. Error mode returns an
// error wrapping ErrInjected; panic mode panics with an InjectedPanic;
// func mode returns the hook's result.
func (r *Registry) Check(p Point) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.sites[p]
	if s.mode == modeOff {
		r.mu.Unlock()
		return nil
	}
	if s.mode != modeFunc && s.prob < 1 && r.rng.Float64() >= s.prob {
		r.mu.Unlock()
		return nil
	}
	r.sites[p].trips++
	r.mu.Unlock()
	switch s.mode {
	case modePanic:
		//lint:allow nopanic deliberate injected panic; exists to exercise recover boundaries
		panic(InjectedPanic{Point: p})
	case modeFunc:
		// Outside the lock: hooks may block (see ArmFunc).
		return s.fn()
	}
	return fmt.Errorf("%w at %s", ErrInjected, p)
}

// Trips returns how many times point p has fired.
func (r *Registry) Trips(p Point) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sites[p].trips
}
