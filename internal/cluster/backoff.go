package cluster

import (
	"math"
	"math/rand"
	"sync"
)

// Backoff defaults (nanoseconds).
const (
	// DefaultBackoffBaseNs is the attempt-0 backoff ceiling (10 ms).
	DefaultBackoffBaseNs = int64(10_000_000)
	// DefaultBackoffMaxNs caps the exponential growth (500 ms).
	DefaultBackoffMaxNs = int64(500_000_000)
)

// Backoff computes jittered exponential retry delays. Delays double per
// attempt up to the cap and carry full jitter (uniform in [cap/2, cap]),
// decorrelating retry storms across a fleet of clients while keeping a
// deterministic seed → delay-sequence mapping for tests. Safe for
// concurrent use; concurrent callers interleave draws from one seeded
// stream, so determinism holds per call sequence, not per goroutine.
type Backoff struct {
	mu sync.Mutex
	//krsp:guardedby(mu)
	rng *rand.Rand
	// base and max never change once NewBackoff returns, so the lock-free
	// reads in Delay are safe.
	base int64 //lint:allow lockcheck immutable after NewBackoff returns
	max  int64 //lint:allow lockcheck immutable after NewBackoff returns
}

// NewBackoff builds a backoff policy; non-positive base/max take the
// defaults. The seed fixes the jitter stream.
func NewBackoff(baseNs, maxNs, seed int64) *Backoff {
	if baseNs <= 0 {
		baseNs = DefaultBackoffBaseNs
	}
	if maxNs <= 0 {
		maxNs = DefaultBackoffMaxNs
	}
	if maxNs < baseNs {
		maxNs = baseNs
	}
	return &Backoff{rng: rand.New(rand.NewSource(seed)), base: baseNs, max: maxNs}
}

// Delay returns the jittered delay before retry number attempt (0-based:
// the delay between the first failure and the second try).
func (b *Backoff) Delay(attempt int) int64 {
	ceil := b.base
	for i := 0; i < attempt && ceil < b.max; i++ {
		ceil *= 2
	}
	if ceil > b.max {
		ceil = b.max
	}
	half := ceil / 2
	b.mu.Lock()
	j := b.rng.Int63n(ceil - half + 1)
	b.mu.Unlock()
	return half + j
}

// Budget is the deadline-budget account for one request's retry chain: an
// absolute monotonic deadline that retries must not overrun. The zero
// Budget is unlimited.
type Budget struct {
	deadline int64
	set      bool
}

// NewBudget builds a budget expiring at now+totalNs; totalNs ≤ 0, or a
// deadline past the largest int64, yields the unlimited budget.
func NewBudget(now, totalNs int64) Budget {
	if totalNs <= 0 || totalNs > math.MaxInt64-now {
		return Budget{}
	}
	return Budget{deadline: now + totalNs, set: true}
}

// Remaining reports the budget left at monotonic time now (never negative);
// unlimited budgets report a sentinel of 1<<62.
func (bu Budget) Remaining(now int64) int64 {
	if !bu.set {
		return 1 << 62
	}
	if r := bu.deadline - now; r > 0 {
		return r
	}
	return 0
}

// Allows reports whether sleeping delayNs at time now still leaves
// reserveNs of budget to do useful work afterwards. A retry whose backoff
// sleep would eat the remaining deadline is pointless — the caller should
// fall back (degraded local solve, stale cache) instead of burning the
// budget asleep.
func (bu Budget) Allows(now, delayNs, reserveNs int64) bool {
	if !bu.set {
		return true
	}
	return delayNs+reserveNs <= bu.Remaining(now)
}
