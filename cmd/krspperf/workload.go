package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// shape sizes a layered grid: about n vertices in lanes of the given width.
type shape struct{ n, width int }

// workload is one set of inputs and the way the benchmark drives them.
type workload struct {
	name string
	grid shape
	// phase1Only runs phase 1 alone: core.Options{Phase1Only} in-process,
	// /solve?algo=phase1 over HTTP.
	phase1Only bool

	// Solver workloads: inputs generated during setup, and warm-up solves.
	pool, warm int

	// The rest applies to krspd workloads only.
	nodes int // krspd processes; more than one forms a ring
	hot   int // size of the hot set; 0 posts a fresh instance every request
	// rate is the open-loop send rate in requests per second.
	rate float64
	// closedRate sizes the pool of fresh instances for the closed loop:
	// enough for this many requests per second of it.
	closedRate float64
}

// service reports whether the workload drives krspd.
func (w workload) service() bool { return w.nodes > 0 }

// algo is the krspd /solve algorithm the workload requests.
func (w workload) algo() string {
	if w.phase1Only {
		return "phase1"
	}
	return "solve"
}

// Why each workload exists:
//
//   - solve-lgrid-2k: the full pipeline with production defaults. The
//     bicameral search does most of the work, so this is where a faster
//     search shows. N is 2k, not 5k: at 5k one solve takes 40 ms to 1.1 s
//     depending on the instance, and a run holds too few solves for its
//     median to repeat from seed to seed.
//   - phase1-lgrid-20k: phase 1 alone (the λ search over min-cost k-flows)
//     at N=20k. The search never runs, so it bypasses search changes and
//     exercises phase-1 and flow kernels.
//   - krspd-hot-5k: one node whose timed requests all hit the solution
//     cache, so no solve runs: decode, fingerprint and encode carry the
//     latency. The hot set is solved with algo=phase1 so that warming it
//     stays cheap; a hit costs the same whatever algorithm filled it.
//   - krspd-ring-fresh-1k: a 3-node ring where every request is a distinct
//     instance, so every request misses, about 2/3 are proxied and each
//     solves: the service-level view of the search and the proxy.
var fullWorkloads = []workload{
	{name: "solve-lgrid-2k", grid: shape{2000, 100}, pool: 16, warm: 2},
	{name: "phase1-lgrid-20k", grid: shape{20000, 200}, phase1Only: true, pool: 4, warm: 1},
	{name: "krspd-hot-5k", grid: shape{5000, 100}, phase1Only: true, nodes: 1, hot: 8, rate: 50},
	{name: "krspd-ring-fresh-1k", grid: shape{1000, 100}, nodes: 3, rate: 20, closedRate: 100},
}

// tinyWorkloads are the same workloads at sizes a smoke test runs in
// seconds. Rates are higher so that even a one-second run holds enough
// requests for its p90.
var tinyWorkloads = []workload{
	{name: "solve-lgrid-2k", grid: shape{120, 10}, pool: 4, warm: 1},
	{name: "phase1-lgrid-20k", grid: shape{400, 20}, phase1Only: true, pool: 4, warm: 1},
	{name: "krspd-hot-5k", grid: shape{200, 10}, phase1Only: true, nodes: 1, hot: 8, rate: 250},
	{name: "krspd-ring-fresh-1k", grid: shape{120, 10}, nodes: 3, rate: 250, closedRate: 600},
}

// selectWorkloads returns the named workload (or all of them) at a scale.
func selectWorkloads(scale, name string) ([]workload, error) {
	var all []workload
	switch scale {
	case "full":
		all = fullWorkloads
	case "tiny":
		all = tinyWorkloads
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
	}
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// kPaths is k for every instance.
const kPaths = 3

// instanceSeed derives the generator seed of input i of a workload from the
// run seed, so each workload draws its own stream.
func instanceSeed(seed int64, wl string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", wl, seed, i)
	return int64(h.Sum64() >> 1)
}

// instance generates input i of a workload: a layered grid with k=3 and a
// delay bound in the Lagrangian-hard band, 1.1·(min k-path delay)+1, which
// core.CheckFeasible certifies feasible.
func instance(seed int64, w workload, i int) (graph.Instance, error) {
	layers := (w.grid.n + w.grid.width - 1) / w.grid.width
	ins := gen.LayeredGrid(instanceSeed(seed, w.name, i), layers, w.grid.width, gen.DefaultWeights())
	ins.K = kPaths
	f, err := core.CheckFeasible(ins)
	if err != nil {
		return graph.Instance{}, fmt.Errorf("instance %d: %w", i, err)
	}
	if f.MaxDisjoint < ins.K {
		return graph.Instance{}, fmt.Errorf("instance %d: only %d disjoint paths", i, f.MaxDisjoint)
	}
	ins.Bound = f.MinDelay + f.MinDelay/10 + 1
	return ins, nil
}
