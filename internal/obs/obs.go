// Package obs is the solver's observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, preallocated fixed-bucket histograms)
// plus a lightweight phase tracer driven by an injected Clock.
//
// Two contracts shape the package:
//
//   - Zero allocations on the record path. Counter.Inc, Gauge.Set,
//     Histogram.Observe and StartSpan/End never allocate; histograms
//     preallocate their buckets at registration time and record with a
//     linear scan plus atomic adds. The `make bench-guard` gate and the
//     alloc tests in this package keep that honest.
//   - The nil sink is a no-op. Every handle type (*Registry, *Counter,
//     *Gauge, *Histogram, the typed metric groups) tolerates a nil
//     receiver, so solver code records unconditionally and a solve with
//     core.Options.Metrics unset pays only dead nil checks.
//
// Time never comes from the wall clock inside deterministic packages: the
// Registry reads an injected Clock, with the single sanctioned real-clock
// shim living in realclock.go (enforced by the krsplint `wallclock`
// analyzer). Tests inject a ManualClock; `obs.New(nil)` yields a frozen
// zero clock, which keeps span recording deterministic (all durations 0)
// while still counting observations.
//
// DESIGN.md §9 documents the architecture and the metric name catalogue.
package obs

import (
	"sort"
	"strconv"
)

// kind discriminates registry entries for exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric plus its exposition metadata.
type entry struct {
	family string // Prometheus metric family name
	help   string
	labels string // rendered const labels, e.g. `phase="phase1"`; "" for none
	kind   kind
	scale  float64 // exposition divisor (1e9 turns nanosecond sums into seconds)

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry owns a fixed set of metrics registered at construction time and
// exposes them in Prometheus text format and as an expvar-style snapshot.
// Registration (Counter/Gauge/Histogram and friends) allocates and is meant
// for startup; recording through the returned handles never does.
//
// The typed groups (Server, Solver, Flow, Bicameral, Shortest) are the
// solver's metric catalogue, eagerly registered by New so instrumentation
// sites hold direct pointers and never perform name lookups.
type Registry struct {
	clock   Clock
	entries []*entry

	// Server instruments cmd/krspd's HTTP surface.
	Server ServerMetrics
	// Solver instruments core.SolveCtx / core.SolveScaledCtx outcomes.
	Solver SolverMetrics
	// Flow instruments flow.MinCostKFlow.
	Flow FlowMetrics
	// Bicameral instruments the bicameral-cycle engines.
	Bicameral BicameralMetrics
	// Shortest instruments the SPFA kernels.
	Shortest ShortestMetrics
	// Cluster instruments krspd's sharded mode: cache, singleflight,
	// proxying, and peer health.
	Cluster ClusterMetrics

	phase [NumPhases]*Histogram
}

// New builds a registry with the full solver catalogue registered. A nil
// clock freezes time at zero: spans still count observations but record
// zero durations, which is the right default for deterministic tests. The
// cmd/ edge injects RealClock{}.
func New(clock Clock) *Registry {
	if clock == nil {
		clock = zeroClock{}
	}
	r := &Registry{clock: clock}
	r.registerCatalogue()
	return r
}

// Now reads the registry clock (monotonic nanoseconds). Nil-safe: a nil
// registry reads 0.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Counter registers and returns a new counter. Nil-safe: a nil registry
// returns a nil (no-op) handle.
func (r *Registry) Counter(family, help string) *Counter {
	return r.LabeledCounter(family, help, "")
}

// LabeledCounter is Counter with constant labels rendered into the
// exposition (e.g. `type="0"`). Labels are fixed at registration so the
// record path stays allocation-free.
func (r *Registry) LabeledCounter(family, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.entries = append(r.entries, &entry{family: family, help: help, labels: labels, kind: kindCounter, scale: 1, c: c})
	return c
}

// Gauge registers and returns a new gauge. Nil-safe like Counter.
func (r *Registry) Gauge(family, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.entries = append(r.entries, &entry{family: family, help: help, kind: kindGauge, scale: 1, g: g})
	return g
}

// Histogram registers a fixed-bucket histogram over the given ascending
// upper bounds (an implicit +Inf bucket is appended). Nil-safe.
func (r *Registry) Histogram(family, help string, bounds []int64) *Histogram {
	return r.histogram(family, help, "", bounds, 1)
}

// DurationHistogram registers a histogram recording nanosecond durations,
// exposed in seconds with log-spaced latency buckets from 100µs to 30s.
func (r *Registry) DurationHistogram(family, help, labels string) *Histogram {
	return r.histogram(family, help, labels, durationBounds, 1e9)
}

func (r *Registry) histogram(family, help, labels string, bounds []int64, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(bounds)
	r.entries = append(r.entries, &entry{family: family, help: help, labels: labels, kind: kindHistogram, scale: scale, h: h})
	return h
}

// durationBounds are nanosecond bucket bounds: 100µs, 316µs, 1ms, …, 30s
// (half-decade log spacing), matching the solve-latency range from
// micro-instances to the pseudo-polynomial worst cases.
var durationBounds = []int64{
	100_000, 316_000,
	1_000_000, 3_160_000,
	10_000_000, 31_600_000,
	100_000_000, 316_000_000,
	1_000_000_000, 3_160_000_000,
	10_000_000_000, 30_000_000_000,
}

// countBounds are generic bucket bounds for per-solve event counts
// (λ-iterations, cancellations): powers of two up to 1024.
var countBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Snapshot returns an expvar-compatible view of every metric: counters and
// gauges as numbers, histograms as {count, sum, buckets} objects keyed by
// upper bound. Keys are "family" or "family{labels}". Nil-safe (empty map).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	for _, e := range r.entries {
		key := e.family
		if e.labels != "" {
			key += "{" + e.labels + "}"
		}
		switch e.kind {
		case kindCounter:
			out[key] = e.c.Value()
		case kindGauge:
			out[key] = e.g.Value()
		case kindHistogram:
			buckets := map[string]int64{}
			cum := int64(0)
			for i, b := range e.h.bounds {
				cum += e.h.counts[i].Load() //lint:allow nilflow registration invariant: kindHistogram entries always carry h
				buckets[formatBound(b, e.scale)] = cum
			}
			buckets["+Inf"] = e.h.Count()
			out[key] = map[string]any{
				"count":   e.h.Count(),
				"sum":     float64(e.h.Sum()) / e.scale,
				"buckets": buckets,
			}
		}
	}
	return out
}

// Families returns the distinct metric family names in registration order
// (exposition order). Mostly for tests and docs tooling.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range r.entries {
		if !seen[e.family] {
			seen[e.family] = true
			out = append(out, e.family)
		}
	}
	return out
}

// sortedSnapshotKeys is a test convenience: Snapshot keys in sorted order.
func (r *Registry) sortedSnapshotKeys() []string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatBound renders a bucket upper bound in exposition units.
func formatBound(b int64, scale float64) string {
	if scale == 1 {
		return strconv.FormatInt(b, 10)
	}
	return strconv.FormatFloat(float64(b)/scale, 'g', -1, 64)
}
