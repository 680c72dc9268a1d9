package obs

// This file is the solver's metric catalogue: the typed groups threaded
// through each layer and their eager registration. DESIGN.md §9 carries
// the prose version of this table.

// ServerMetrics instruments cmd/krspd's HTTP surface.
type ServerMetrics struct {
	// SolveRequests counts POST /solve requests accepted for solving.
	SolveRequests *Counter
	// FeasibleRequests counts POST /feasible requests.
	FeasibleRequests *Counter
	// RequestErrors counts requests answered with a 4xx/5xx status.
	RequestErrors *Counter
	// Inflight tracks concurrently executing solve/feasible requests.
	Inflight *Gauge
	// RequestDuration is the end-to-end request latency histogram.
	RequestDuration *Histogram
	// Shed counts requests rejected 429 by admission control (overload).
	Shed *Counter
	// PanicsRecovered counts handler panics converted to 500s by the
	// recover middleware.
	PanicsRecovered *Counter
}

// RecordPanic folds one recovered handler panic (answered as a 500) into
// the group. Nil-safe like every handle, so the HTTP layer records
// unconditionally even when the daemon runs without a registry.
func (m *ServerMetrics) RecordPanic() {
	if m == nil {
		return
	}
	m.PanicsRecovered.Inc()
	m.RequestErrors.Inc()
}

// RecordShed counts one request rejected 429 by admission control.
func (m *ServerMetrics) RecordShed() {
	if m == nil {
		return
	}
	m.Shed.Inc()
}

// RecordError counts one request answered with a 4xx/5xx status.
func (m *ServerMetrics) RecordError() {
	if m == nil {
		return
	}
	m.RequestErrors.Inc()
}

// ObserveRequest records one end-to-end request latency (nanoseconds).
func (m *ServerMetrics) ObserveRequest(ns int64) {
	if m == nil {
		return
	}
	m.RequestDuration.Observe(ns)
}

// RecordAccepted counts one accepted request on the named endpoint counter
// (feasible selects FeasibleRequests, otherwise SolveRequests).
func (m *ServerMetrics) RecordAccepted(feasible bool) {
	if m == nil {
		return
	}
	if feasible {
		m.FeasibleRequests.Inc()
	} else {
		m.SolveRequests.Inc()
	}
}

// AddInflight tracks request concurrency; call with +1 on entry and -1 on
// exit.
func (m *ServerMetrics) AddInflight(d int64) {
	if m == nil {
		return
	}
	m.Inflight.Add(d)
}

// SolverMetrics instruments core.SolveCtx / core.SolveScaledCtx outcomes. The
// per-solve counters are recorded post-hoc from the returned core.Stats so
// the cancellation loop itself gains no record calls.
type SolverMetrics struct {
	// Solves counts completed SolveCtx/SolveScaledCtx calls (success or error).
	Solves *Counter
	// Errors counts solves that returned an error (incl. ErrNoKPaths).
	Errors *Counter
	// Exact counts solves whose certificate proves exact optimality.
	Exact *Counter
	// Cancellations counts Algorithm 1 cycle cancellations applied.
	Cancellations *Counter
	// Cycles counts cancellations by bicameral cycle type (Definition 10).
	Cycles [3]*Counter
	// CRefEscalations counts C_ref cost-cap escalations.
	CRefEscalations *Counter
	// RelaxedCap counts solves that needed the relaxed cost cap.
	RelaxedCap *Counter
	// Phase1Fallbacks counts solves that fell back to the Phase-1 answer.
	Phase1Fallbacks *Counter
	// BudgetEscalations accumulates Stats.BudgetsTried across solves.
	BudgetEscalations *Counter
	// LambdaIterations is the per-solve Phase-1 λ-iteration histogram.
	LambdaIterations *Histogram
	// CancellationsPerSolve is the per-solve cancellation-count histogram.
	CancellationsPerSolve *Histogram
	// CycleCancelIters is the per-solve phase-2 loop-iteration histogram:
	// applied cancellations PLUS the no-cycle C_ref escalation rounds, the
	// full iteration count of the loop that dominates solve time at scale
	// (ROADMAP item 3). CancellationsPerSolve counts only the applied subset.
	CycleCancelIters *Histogram
	// Degraded counts solves cut short by a deadline that returned the best
	// feasible intermediate solution (Stats.Degraded).
	Degraded *Counter
	// ResidualRebuilds accumulates Stats.ResidualRebuilds: full residual
	// rebuilds healing a failed incremental update.
	ResidualRebuilds *Counter
}

// FlowMetrics instruments flow.MinCostKFlow.
type FlowMetrics struct {
	// Calls counts MinCostKFlow invocations.
	Calls *Counter
	// Augmentations counts successive-shortest-path augmentation rounds.
	Augmentations *Counter
	// Relaxations counts improving edge relaxations in the SSP Dijkstra.
	Relaxations *Counter
	// Infeasible counts calls that found fewer than k units of flow.
	Infeasible *Counter
}

// BicameralMetrics instruments the bicameral-cycle search engines.
type BicameralMetrics struct {
	// Finds counts bicameral.Find invocations.
	Finds *Counter
	// Searches counts negative-cycle searches across all budgets.
	Searches *Counter
	// Candidates counts qualifying candidate cycles inspected.
	Candidates *Counter
	// BudgetEscalations counts layered-search budget ladder steps tried.
	BudgetEscalations *Counter
	// NotFound counts Find calls that exhausted every engine.
	NotFound *Counter
}

// ShortestMetrics instruments the SPFA kernels feeding the bicameral
// search. Recorded once per kernel run from locally accumulated counts,
// so the relaxation loop carries no atomics.
type ShortestMetrics struct {
	// Runs counts SPFA kernel invocations.
	Runs *Counter
	// Relaxations counts improving relaxations across all runs.
	Relaxations *Counter
	// NegCycles counts runs that found a negative cycle.
	NegCycles *Counter
}

// RecordRun folds one SPFA kernel run into the group. Nil-safe so
// shortest.Workspace can call it unconditionally.
func (m *ShortestMetrics) RecordRun(relaxations int64, negCycle bool) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	m.Relaxations.Add(relaxations)
	if negCycle {
		m.NegCycles.Inc()
	}
}

// ClusterMetrics instruments krspd's sharded mode (DESIGN.md §14): the
// fingerprint cache, singleflight collapsing, peer proxying with
// retry/hedging, and the circuit breaker's eject/readmit transitions.
type ClusterMetrics struct {
	// CacheHits counts solves answered from a fresh cache entry.
	CacheHits *Counter
	// CacheMisses counts solve fingerprints not found fresh in the cache.
	CacheMisses *Counter
	// StaleServed counts deadline-pressure responses served from a stale
	// cache entry instead of a 503.
	StaleServed *Counter
	// SingleflightCollapsed counts solves collapsed onto an identical
	// in-flight solve's result.
	SingleflightCollapsed *Counter
	// ProxyRequests counts solves proxied to the owning peer.
	ProxyRequests *Counter
	// ProxyRetries counts proxy attempts repeated after a retryable failure.
	ProxyRetries *Counter
	// ProxyHedged counts hedged second attempts launched on slow proxies.
	ProxyHedged *Counter
	// PeerEjected counts circuit-breaker peer ejections.
	PeerEjected *Counter
	// PeerReadmitted counts ejected peers readmitted by a successful probe.
	PeerReadmitted *Counter
	// DegradedRoute counts solves computed locally because the owning peer
	// was unreachable.
	DegradedRoute *Counter
}

// RecordCacheLookup folds one cache lookup: a fresh hit or a miss. Stale
// hits count as misses here (the solve still runs); serving a stale entry
// is recorded separately via RecordStaleServed.
func (m *ClusterMetrics) RecordCacheLookup(fresh bool) {
	if m == nil {
		return
	}
	if fresh {
		m.CacheHits.Inc()
	} else {
		m.CacheMisses.Inc()
	}
}

// RecordStaleServed counts one stale cache entry served under deadline
// pressure in place of a 503.
func (m *ClusterMetrics) RecordStaleServed() {
	if m == nil {
		return
	}
	m.StaleServed.Inc()
}

// RecordCollapsed counts one solve collapsed onto an in-flight duplicate.
func (m *ClusterMetrics) RecordCollapsed() {
	if m == nil {
		return
	}
	m.SingleflightCollapsed.Inc()
}

// RecordProxy counts one proxied solve and the retries it needed beyond
// the first attempt.
func (m *ClusterMetrics) RecordProxy(retries int64) {
	if m == nil {
		return
	}
	m.ProxyRequests.Inc()
	if retries > 0 {
		m.ProxyRetries.Add(retries)
	}
}

// RecordHedged counts one hedged second attempt launched.
func (m *ClusterMetrics) RecordHedged() {
	if m == nil {
		return
	}
	m.ProxyHedged.Inc()
}

// RecordEjected counts one circuit-breaker peer ejection.
func (m *ClusterMetrics) RecordEjected() {
	if m == nil {
		return
	}
	m.PeerEjected.Inc()
}

// RecordReadmitted counts one peer readmission after a successful probe.
func (m *ClusterMetrics) RecordReadmitted() {
	if m == nil {
		return
	}
	m.PeerReadmitted.Inc()
}

// RecordDegradedRoute counts one local solve forced by an unreachable
// owner.
func (m *ClusterMetrics) RecordDegradedRoute() {
	if m == nil {
		return
	}
	m.DegradedRoute.Inc()
}

// ServerMetrics returns the HTTP metric group; nil on a nil registry.
func (r *Registry) ServerMetrics() *ServerMetrics {
	if r == nil {
		return nil
	}
	return &r.Server
}

// SolverMetrics returns the solver metric group; nil on a nil registry.
func (r *Registry) SolverMetrics() *SolverMetrics {
	if r == nil {
		return nil
	}
	return &r.Solver
}

// FlowMetrics returns the min-cost-flow metric group; nil on a nil
// registry (flow.KFlowSolver treats nil as "don't record").
func (r *Registry) FlowMetrics() *FlowMetrics {
	if r == nil {
		return nil
	}
	return &r.Flow
}

// BicameralMetrics returns the bicameral metric group; nil on a nil
// registry.
func (r *Registry) BicameralMetrics() *BicameralMetrics {
	if r == nil {
		return nil
	}
	return &r.Bicameral
}

// ClusterMetrics returns the sharded-mode metric group; nil on a nil
// registry.
func (r *Registry) ClusterMetrics() *ClusterMetrics {
	if r == nil {
		return nil
	}
	return &r.Cluster
}

// ShortestMetrics returns the SPFA metric group; nil on a nil registry.
func (r *Registry) ShortestMetrics() *ShortestMetrics {
	if r == nil {
		return nil
	}
	return &r.Shortest
}

// registerCatalogue eagerly registers every solver metric. Entries of one
// family are registered consecutively so exposition emits HELP/TYPE
// headers exactly once per family.
func (r *Registry) registerCatalogue() {
	if r == nil {
		return
	}
	// cmd/krspd HTTP surface.
	r.Server.SolveRequests = r.Counter("krspd_solve_requests_total",
		"POST /solve requests accepted for solving.")
	r.Server.FeasibleRequests = r.Counter("krspd_feasible_requests_total",
		"POST /feasible requests accepted.")
	r.Server.RequestErrors = r.Counter("krspd_request_errors_total",
		"Requests answered with a 4xx/5xx status.")
	r.Server.Inflight = r.Gauge("krspd_inflight_requests",
		"Solve/feasible requests currently executing.")
	r.Server.RequestDuration = r.DurationHistogram("krspd_request_duration_seconds",
		"End-to-end request latency.", "")
	r.Server.Shed = r.Counter("krspd_shed_total",
		"Requests rejected 429 by admission control.")
	r.Server.PanicsRecovered = r.Counter("krspd_panic_recovered_total",
		"Handler panics converted to 500s by the recover middleware.")

	// core solve outcomes.
	r.Solver.Solves = r.Counter("krsp_solves_total",
		"Completed SolveCtx/SolveScaledCtx calls, success or error.")
	r.Solver.Errors = r.Counter("krsp_solve_errors_total",
		"Solves that returned an error (incl. no-k-paths).")
	r.Solver.Exact = r.Counter("krsp_solves_exact_total",
		"Solves whose certificate proves exact optimality.")
	r.Solver.Cancellations = r.Counter("krsp_cancellations_total",
		"Algorithm 1 cycle cancellations applied.")
	for i := range r.Solver.Cycles {
		r.Solver.Cycles[i] = r.LabeledCounter("krsp_cycles_total",
			"Cancellations by bicameral cycle type (Definition 10).",
			cycleTypeLabels[i])
	}
	r.Solver.CRefEscalations = r.Counter("krsp_cref_escalations_total",
		"C_ref cost-cap escalations during cancellation.")
	r.Solver.RelaxedCap = r.Counter("krsp_relaxed_cap_total",
		"Solves that needed the relaxed cost cap.")
	r.Solver.Phase1Fallbacks = r.Counter("krsp_phase1_fallbacks_total",
		"Solves that fell back to the Phase-1 answer.")
	r.Solver.BudgetEscalations = r.Counter("krsp_budget_escalations_total",
		"Bicameral budget escalations accumulated across solves.")
	r.Solver.LambdaIterations = r.Histogram("krsp_phase1_lambda_iterations",
		"Phase-1 Lagrangian iterations per solve.", countBounds)
	r.Solver.CancellationsPerSolve = r.Histogram("krsp_cancellations_per_solve",
		"Cycle cancellations per solve.", countBounds)
	r.Solver.CycleCancelIters = r.Histogram("krsp_cycle_cancel_iters",
		"Phase-2 cancellation loop iterations per solve (applied cancellations plus no-cycle escalation rounds).",
		countBounds)
	r.Solver.Degraded = r.Counter("krsp_solve_degraded_total",
		"Solves cut short by a deadline, answered with the best feasible intermediate.")
	r.Solver.ResidualRebuilds = r.Counter("krsp_residual_rebuilds_total",
		"Full residual rebuilds healing a failed incremental update.")
	for p := Phase(0); p < NumPhases; p++ {
		r.phase[p] = r.DurationHistogram("krsp_solve_phase_duration_seconds",
			"Solve pipeline phase duration.", `phase="`+p.String()+`"`)
	}

	// flow.MinCostKFlow.
	r.Flow.Calls = r.Counter("krsp_flow_mincost_calls_total",
		"MinCostKFlow invocations.")
	r.Flow.Augmentations = r.Counter("krsp_flow_augmentations_total",
		"Successive-shortest-path augmentation rounds.")
	r.Flow.Relaxations = r.Counter("krsp_flow_relaxations_total",
		"Improving edge relaxations in the SSP Dijkstra.")
	r.Flow.Infeasible = r.Counter("krsp_flow_infeasible_total",
		"MinCostKFlow calls that found fewer than k flow units.")

	// bicameral search.
	r.Bicameral.Finds = r.Counter("krsp_bicameral_finds_total",
		"bicameral.Find invocations.")
	r.Bicameral.Searches = r.Counter("krsp_bicameral_searches_total",
		"Negative-cycle searches across all budgets.")
	r.Bicameral.Candidates = r.Counter("krsp_bicameral_candidates_total",
		"Qualifying candidate cycles inspected.")
	r.Bicameral.BudgetEscalations = r.Counter("krsp_bicameral_budgets_total",
		"Layered-search budget ladder steps tried.")
	r.Bicameral.NotFound = r.Counter("krsp_bicameral_not_found_total",
		"Find calls that exhausted every engine without a cycle.")

	// krspd sharded mode.
	r.Cluster.CacheHits = r.Counter("krsp_cache_hits_total",
		"Solves answered from a fresh cache entry.")
	r.Cluster.CacheMisses = r.Counter("krsp_cache_misses_total",
		"Solve fingerprints not found fresh in the cache.")
	r.Cluster.StaleServed = r.Counter("krsp_cache_stale_served_total",
		"Stale cache entries served under deadline pressure instead of a 503.")
	r.Cluster.SingleflightCollapsed = r.Counter("krsp_singleflight_collapsed_total",
		"Solves collapsed onto an identical in-flight solve's result.")
	r.Cluster.ProxyRequests = r.Counter("krsp_proxy_requests_total",
		"Solves proxied to the owning peer.")
	r.Cluster.ProxyRetries = r.Counter("krsp_proxy_retries_total",
		"Proxy attempts repeated after a retryable failure.")
	r.Cluster.ProxyHedged = r.Counter("krsp_proxy_hedged_total",
		"Hedged second attempts launched on slow proxies.")
	r.Cluster.PeerEjected = r.Counter("krsp_peer_ejected_total",
		"Circuit-breaker peer ejections.")
	r.Cluster.PeerReadmitted = r.Counter("krsp_peer_readmitted_total",
		"Ejected peers readmitted by a successful probe.")
	r.Cluster.DegradedRoute = r.Counter("krsp_degraded_route_total",
		"Solves computed locally because the owning peer was unreachable.")

	// shortest SPFA kernels.
	r.Shortest.Runs = r.Counter("krsp_spfa_runs_total",
		"SPFA kernel invocations.")
	r.Shortest.Relaxations = r.Counter("krsp_spfa_relaxations_total",
		"Improving relaxations across all SPFA runs.")
	r.Shortest.NegCycles = r.Counter("krsp_spfa_negative_cycles_total",
		"SPFA runs that found a negative cycle.")
}

// cycleTypeLabels pre-renders the const labels for krsp_cycles_total so
// registration stays a pure table.
var cycleTypeLabels = [3]string{`type="0"`, `type="1"`, `type="2"`}
