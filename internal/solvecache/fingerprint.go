// Package solvecache keys solved kRSP instances by a canonical fingerprint
// and serves repeated solves from an LRU cache, collapsing identical
// in-flight solves through a singleflight group. It is the memory layer of
// krspd's cluster mode (DESIGN.md §14): the fingerprint decides which node
// owns an instance, the cache turns re-solves of hot instances into sub-ms
// lookups, and the singleflight group sheds redundant work under request
// storms — a cache hit or a collapsed waiter is one less multi-second solve
// competing for the admission semaphore.
//
// Package contracts:
//
//   - Fingerprints are canonical: byte-identical across edge insertion
//     orders, graph clones, and weight-edit round-trips. Two requests carrying
//     the same instance always land on the same owner and the same cache
//     line, whichever node or byte order produced them.
//   - The fingerprint + lookup path is allocation-free, and Put reuses
//     evicted entries through a freelist, so in steady state the cache
//     layer adds zero allocations per solve (bench-guarded by
//     BenchmarkSolveN60K3CacheMiss).
//   - Time never comes from the wall clock: callers pass monotonic
//     nanosecond readings (krspd reads its obs.Registry clock), which keeps
//     TTL/staleness decisions deterministic in tests.
package solvecache

import (
	"math"

	"repro/internal/graph"
)

// FP is a 128-bit canonical instance fingerprint. The zero value never
// collides with a real fingerprint in practice and is safe as a map key.
type FP struct {
	Hi, Lo uint64
}

// Key64 folds the fingerprint to the 64-bit key the cluster ring hashes.
func (f FP) Key64() uint64 { return mix64(f.Hi ^ rotl(f.Lo, 32)) }

// String renders the fingerprint as 32 lowercase hex digits.
func (f FP) String() string {
	var b [32]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[15-i] = hexdigits[(f.Hi>>(4*i))&0xf]
		b[31-i] = hexdigits[(f.Lo>>(4*i))&0xf]
	}
	return string(b[:])
}

// Fingerprint computes the canonical fingerprint of a solve request: the
// instance (graph shape, s, t, k, D) plus the algorithm variant and its ε.
// The per-edge hashes are combined by summation, so the result is
// independent of edge insertion order; an edit that restores every edge
// tuple exactly (say SetEdgeWeights there and back) restores the fingerprint
// too. Each tuple is ordered (From, To, Cost, Delay), so u→v and v→u hash
// apart. The instance Name is a display label and deliberately excluded.
// Pass variant "" / eps 0 for
// the default exact solve; distinct variants (phase1, scaled) hash apart so
// a cached phase-1 answer can never satisfy a full solve.
//
//krsp:noalloc
func Fingerprint(ins graph.Instance, variant string, eps float64) FP {
	// Order-independent multiset hash of the edge tuples: two accumulators
	// with decorrelated per-edge mixes give 128 bits against collision and
	// defeat the cancellation weakness of a single XOR/sum.
	var sum1, sum2 uint64
	for _, e := range ins.G.EdgesView() {
		x := mix64(uint64(uint32(e.From)) ^ seedEdge)
		x = mix64(x ^ uint64(uint32(e.To)))
		x = mix64(x ^ uint64(e.Cost))
		x = mix64(x ^ uint64(e.Delay))
		sum1 += x
		sum2 += mix64(x ^ seedTwin)
	}
	var vh uint64 = seedVariant
	for i := 0; i < len(variant); i++ {
		vh = mix64(vh ^ uint64(variant[i]))
	}
	header := [8]uint64{
		uint64(ins.G.NumNodes()),
		uint64(ins.G.NumEdges()),
		uint64(uint32(ins.S)),
		uint64(uint32(ins.T)),
		uint64(ins.K),
		uint64(ins.Bound),
		math.Float64bits(eps),
		vh,
	}
	hi, lo := sum1^seedHi, sum2^seedLo
	for _, w := range header {
		hi = mix64(hi ^ w)
		lo = mix64(lo ^ rotl(w, 17))
	}
	return FP{Hi: mix64(hi ^ sum2), Lo: mix64(lo ^ sum1)}
}

// Hash seeds: arbitrary odd constants, fixed forever — fingerprints are
// pinned by golden tests and must stay stable across releases.
const (
	seedEdge    = 0x9e3779b97f4a7c15
	seedTwin    = 0xc2b2ae3d27d4eb4f
	seedVariant = 0x165667b19e3779f9
	seedHi      = 0x27d4eb2f165667c5
	seedLo      = 0x85ebca77c2b2ae63
)

// mix64 is the splitmix64 finalizer: a fast, well-dispersed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
