package bicameral

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/auxgraph"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// This file implements the parallel side of the combinatorial engine: the
// per-seed layered sweep and the simple-cycle enumerator both fan out over
// a bounded worker pool, then reduce their per-index results by replaying
// the serial visit order (ascending seed/root index, same better()
// tie-breaks, same step-budget accounting). Work computed past the serial
// stopping point is discarded by the reduction, so the outcome is
// bit-identical for every worker count; atomic cancellation flags merely
// trim that speculative tail.

// effectiveWorkers resolves Options.Workers against the item count and the
// machine: ≤1 is serial, values above GOMAXPROCS are clamped.
func effectiveWorkers(o Options, items int) int {
	w := o.Workers
	if w < 1 {
		w = 1
	}
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelOrdered runs fn(i, worker) for i = 0..n-1 on `workers`
// goroutines. Indices are pulled in ascending order; cancelled(i) is
// consulted before running index i and must be monotone (once true for i it
// stays true, and it may only become true when the reduction provably stops
// before i). fn receives a stable worker id in [0, workers) for per-worker
// scratch. With workers ≤ 1 everything runs on the calling goroutine, and a
// cancelled index ends the loop outright (the reduction stops before it).
//
//krsp:terminates(every claim-loop pass advances the shared atomic counter, which reaches n; kernels poll via the worker's child canceller)
func parallelOrdered(n, workers int, fn func(i, worker int), cancelled func(i int) bool) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cancelled != nil && cancelled(i) {
				return
			}
			fn(i, 0)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if cancelled != nil && cancelled(i) {
					return
				}
				fn(i, worker)
			}
		}(w)
	}
	wg.Wait()
}

// mergeFallback folds a per-shard relaxed-cap fallback into the shared
// Stats using the same strictly-better-W rule candidatesFromWalk applies,
// so merging shard fallbacks in visit order reproduces the serial result.
func mergeFallback(st *Stats, fb *Candidate, p Params) {
	if fb == nil {
		return
	}
	if st.Fallback == nil || p.DeltaC*fb.Delay-p.DeltaD*fb.Cost < //lint:allow weightovf combined weight W; bounded by Find's entry guard
		p.DeltaC*st.Fallback.Delay-p.DeltaD*st.Fallback.Cost { //lint:allow weightovf combined weight W; bounded by Find's entry guard
		c := *fb
		st.Fallback = &c
	}
}

// seedResult is the outcome of one per-seed layered search.
type seedResult struct {
	ran   bool
	quals []Candidate // cap-respecting candidates, in discovery order
	local Stats       // Candidates + Fallback gathered by candidatesFromWalk
}

// sweepSeeds runs the per-seed TwoSided layered searches at budget b over a
// worker pool and reduces the results in seed order: each processed seed
// contributes Searches/Candidates/Fallback to st exactly as the serial loop
// did, and the first seed with a qualifying candidate ends the sweep with
// the best of that seed's candidates (earlier seeds had none, so this
// matches the serial early return). found=false leaves the caller to
// escalate the budget.
//
//krsp:terminates(per-seed searches are relaxation-budgeted, and the stop-index CAS retries on a monotonically decreasing value)
func sweepSeeds(rg *residual.Graph, perSeed []graph.NodeID, b int64, lw shortest.LinWeight, relaxBudget int, p Params, o Options, st *Stats) (Candidate, bool) {
	n := len(perSeed)
	if n == 0 {
		return Candidate{}, false
	}
	workers := effectiveWorkers(o, n)
	if bm := o.Metrics.BicameralMetrics(); bm != nil {
		bm.SeedSweeps.Inc()
		bm.SweepWorkers.Observe(int64(workers))
	}
	results := make([]seedResult, n)
	wss := make([]*shortest.Workspace, workers)
	// Cancellers are single-goroutine state: each worker polls its own Child
	// (nil parent → nil children → free no-ops).
	kids := make([]*cancel.Canceller, workers)
	defer func() {
		for _, k := range kids {
			k.Release()
		}
	}()
	sm := o.Metrics.ShortestMetrics()
	for i := range wss {
		wss[i] = shortest.NewWorkspace(1) // grows to layered size on first use
		wss[i].SetMetrics(sm)
		kids[i] = o.Cancel.Child()
		wss[i].SetCancel(kids[i])
	}
	var stopAt atomic.Int64 // lowest seed index with a qualifying candidate
	stopAt.Store(int64(n))
	run := func(i, worker int) {
		av := auxgraph.Build(rg.View(), perSeed[i], b, auxgraph.TwoSided)
		r := seedResult{ran: true}
		cyc, found, _ := shortest.SPFAAllBoundedCSRInto(wss[worker], av.H, lw, relaxBudget)
		if found {
			for _, c := range candidatesFromWalk(rg, av, cyc.Edges, p, &r.local) {
				if c.Type != TypeNone {
					r.quals = append(r.quals, c)
				}
			}
		}
		results[i] = r
		if len(r.quals) > 0 {
			for {
				cur := stopAt.Load()
				if int64(i) >= cur || stopAt.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	}
	// Sound because stopAt only ever holds qualifying seed indices, so it
	// stays ≥ the minimum one, and the replay stops exactly there.
	cancelled := func(i int) bool { return int64(i) > stopAt.Load() }
	parallelOrdered(n, workers, run, cancelled)

	for i := 0; i < n; i++ {
		r := results[i]
		if !r.ran {
			break // only past the minimum qualifying seed
		}
		st.Searches++
		st.Candidates += r.local.Candidates
		mergeFallback(st, r.local.Fallback, p)
		if len(r.quals) > 0 {
			best := r.quals[0]
			for _, c := range r.quals[1:] {
				if better(c, best, o.Adversarial) {
					best = c
				}
			}
			return best, true
		}
	}
	return Candidate{}, false
}

// enumRootBudget is the DFS step budget of one enumeration root. The
// serial replay additionally enforces the global enumStepBudget, matching
// the pre-parallel enumerator's accounting.
const (
	enumStepBudget = 400000
	enumRootBudget = 400000
)

// enumScratch is per-worker DFS state for the cycle enumerator.
type enumScratch struct {
	visited []bool
	stack   []graph.EdgeID
	cancel  *cancel.Canceller // this worker's Child; nil is a free no-op
}

// rootResult is the outcome of enumerating the vertex-simple cycles rooted
// (by minimum vertex) at one start vertex.
type rootResult struct {
	ran        bool
	best       Candidate
	found      bool
	type0      bool // hit a type-0 candidate: enumeration stops here
	exhausted  bool // per-root step budget ran out
	steps      int
	candidates int
}

// enumerateRoot DFS-enumerates the vertex-simple cycles whose minimum
// vertex is start, classifying each against Definition 10. It stops at the
// first type-0 candidate (non-adversarial) or when its step budget runs
// out; otherwise it reduces candidates with better() in discovery order.
func enumerateRoot(rg *residual.Graph, start graph.NodeID, p Params, o Options, scr *enumScratch) rootResult {
	g := rg.View()
	res := rootResult{ran: true}
	var dfs func(cur graph.NodeID, cost, delay int64) bool
	dfs = func(cur graph.NodeID, cost, delay int64) bool {
		res.steps++
		if res.steps > enumRootBudget || scr.cancel.Poll() {
			// Cancellation reuses the budget-exhaustion path: the enumeration
			// simply stops being a completeness certificate.
			res.exhausted = true
			return true
		}
		for out := g.Out(cur); ; {
			id, ok := out.Next()
			if !ok {
				break
			}
			to := g.Head(id)
			if to == start {
				c, d := cost+g.Cost(id), delay+g.Delay(id) //lint:allow weightovf DFS path aggregates ≤ n·MaxWeight
				ty := Classify(c, d, p)
				if ty != TypeNone {
					res.candidates++
					cyc := graph.Cycle{Edges: append(append([]graph.EdgeID(nil), scr.stack...), id)}
					cand := Candidate{Cycles: []graph.Cycle{cyc}, Cost: c, Delay: d, Type: ty}
					if !res.found || better(cand, res.best, o.Adversarial) {
						res.best, res.found = cand, true
					}
					if ty == Type0 && !o.Adversarial {
						res.type0 = true
						return true
					}
				}
				continue
			}
			if to < start || scr.visited[to] {
				continue
			}
			scr.visited[to] = true
			scr.stack = append(scr.stack, id)
			stop := dfs(to, cost+g.Cost(id), delay+g.Delay(id)) //lint:allow weightovf DFS path aggregates ≤ n·MaxWeight
			scr.stack = scr.stack[:len(scr.stack)-1]
			scr.visited[to] = false
			if stop {
				return true
			}
		}
		return false
	}
	dfs(start, 0, 0)
	return res
}

// enumerateQualifying enumerates vertex-simple residual cycles rooted at
// their minimum vertex over a worker pool, classifying each against
// Definition 10. The deterministic reduction replays the serial root order
// under the global step budget: a root whose DFS does not fit in the
// remaining budget ends the scan with exhausted=true (the enumeration is
// then NOT a completeness certificate), and a type-0 hit stops it at the
// first such root. Results are identical for every Options.Workers value.
//
//krsp:terminates(per-root DFS is step-budgeted, the frontier only advances, and the stop-index CAS retries on a monotonically decreasing value)
func enumerateQualifying(rg *residual.Graph, p Params, o Options, st *Stats) (best Candidate, found, exhausted bool) {
	n := rg.View().NumNodes()
	if n == 0 {
		return Candidate{}, false, false
	}
	workers := effectiveWorkers(o, n)
	results := make([]rootResult, n)
	scratch := make([]*enumScratch, workers)
	for i := range scratch {
		//lint:allow hotalloc one-time per-worker scratch, bounded by Options.Workers
		scratch[i] = &enumScratch{visited: make([]bool, n), cancel: o.Cancel.Child()}
	}
	defer func() {
		for _, s := range scratch {
			s.cancel.Release()
		}
	}()
	var stopAt atomic.Int64 // lowest root index that hit a type-0
	stopAt.Store(int64(n))
	// Budget cancellation counts only the steps of the CONTIGUOUS completed
	// prefix 0..frontier−1: once that prefix alone exceeds the global budget
	// the replay provably breaks inside it, so skipping later roots cannot
	// change the result. (Counting speculative high-index roots would not be
	// sound — it could skip a root the replay still reaches.)
	var mu sync.Mutex
	frontier, prefixSteps := 0, 0
	var overBudget atomic.Bool
	run := func(i, worker int) {
		r := enumerateRoot(rg, graph.NodeID(i), p, o, scratch[worker])
		if r.type0 {
			for {
				cur := stopAt.Load()
				if int64(i) >= cur || stopAt.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
		// The results write shares the frontier lock: the scan below reads
		// neighbouring indices, so unsynchronized writes would race with it.
		mu.Lock()
		results[i] = r
		for frontier < n && results[frontier].ran {
			prefixSteps += results[frontier].steps
			frontier++
		}
		if prefixSteps > enumStepBudget {
			overBudget.Store(true)
		}
		mu.Unlock()
	}
	// Both flags are monotone and only fire when the replay below provably
	// stops before the skipped index: a type-0 at root r stops it at ≤ r,
	// and an over-budget completed prefix stops it inside that prefix.
	cancelled := func(i int) bool {
		return int64(i) > stopAt.Load() || overBudget.Load()
	}
	parallelOrdered(n, workers, run, cancelled)

	remaining := enumStepBudget
	for i := 0; i < n; i++ {
		r := results[i]
		if !r.ran {
			// Only reachable past a budget break; keep the certificate honest.
			exhausted = true
			break
		}
		if r.steps > remaining {
			exhausted = true
			break
		}
		remaining -= r.steps
		st.Candidates += r.candidates
		if r.found && (!found || better(r.best, best, o.Adversarial)) {
			best, found = r.best, true
		}
		if r.type0 {
			break
		}
	}
	return best, found, exhausted
}
