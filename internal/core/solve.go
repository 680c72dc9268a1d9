package core

import (
	"context"
	"fmt"

	"repro/internal/bicameral"
	"repro/internal/cancel"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/residual"
)

// Solve runs the paper's Algorithm 1 (Lemma 3): phase 1, then cycle
// cancellation with bicameral cycles until the delay bound holds. On
// feasible instances the output satisfies Delay ≤ D and, whenever the
// cap-respecting search sufficed (Stats.RelaxedCap == false), Cost ≤
// 2·C_OPT. Pseudo-polynomial in the weight magnitudes; use SolveScaledCtx
// for the polynomial (1+ε₁, 2+ε₂) variant.
func Solve(ins graph.Instance, opt Options) (Result, error) {
	return SolveCtx(context.Background(), ins, opt)
}

// SolveCtx is Solve honoring ctx as a deadline for an ANYTIME solve: when
// ctx is done mid-run the solver returns the best delay-feasible solution
// reached so far with Stats.Degraded set, rather than an error. Degraded
// results always satisfy Delay ≤ D (the cancellation loop starts from the
// bound-violating endpoint, so the feasible phase-1 flow is the anytime
// answer until the loop completes) and still carry the phase-1 LowerBound
// certificate — only the 2·C_OPT cost guarantee is forfeited. ErrNoProgress
// is returned only when ctx fired before phase 1 produced any feasible
// k-flow at all. A Background (or otherwise non-cancellable) context makes
// SolveCtx identical to Solve: the poll sites cost one nil-check each.
func SolveCtx(ctx context.Context, ins graph.Instance, opt Options) (Result, error) {
	c := cancel.New(ctx, opt.PollEvery)
	defer c.Release()
	total := opt.Metrics.StartSpan(obs.PhaseTotal)
	res, err := solve(ins, opt, c)
	total.End()
	recordOutcome(opt.Metrics, res, err)
	return res, err
}

// recordOutcome folds one finished solve into the metric sink, reading
// everything from the returned Stats so the cancellation loop itself
// carries no record calls. Nil-safe; called once per exported entry point
// (SolveCtx, SolveScaledCtx — never by the internal solve, which would
// double-count the scaled inner run).
func recordOutcome(m *obs.Registry, res Result, err error) {
	sm := m.SolverMetrics()
	if sm == nil {
		return
	}
	sm.Solves.Inc()
	if err != nil {
		sm.Errors.Inc()
		return
	}
	if res.Exact {
		sm.Exact.Inc()
	}
	st := res.Stats
	sm.Cancellations.Add(int64(st.Iterations))
	for i, c := range st.CyclesByType {
		sm.Cycles[i].Add(int64(c))
	}
	sm.CRefEscalations.Add(int64(st.CRefEscalations))
	sm.BudgetEscalations.Add(int64(st.BudgetsTried))
	if st.RelaxedCap {
		sm.RelaxedCap.Inc()
	}
	if st.FellBackToPhase1 {
		sm.Phase1Fallbacks.Inc()
	}
	sm.LambdaIterations.Observe(int64(st.Phase1.LambdaIterations))
	sm.CancellationsPerSolve.Observe(int64(st.Iterations))
	sm.CycleCancelIters.Observe(int64(st.Iterations + st.CRefEscalations))
	if st.Degraded {
		sm.Degraded.Inc()
	}
	sm.ResidualRebuilds.Add(int64(st.ResidualRebuilds))
}

// solve is Solve without the outcome recording and total-phase span; the
// scaled path reuses it to avoid double-counting solves. c may be nil (no
// cancellation).
func solve(ins graph.Instance, opt Options, c *cancel.Canceller) (Result, error) {
	m := opt.Metrics
	r := opt.Recorder
	if ins.G != nil {
		r.Record(rec.KindSolveStart, int64(ins.G.NumNodes()), int64(ins.G.NumEdges()), int64(ins.K), ins.Bound)
	}
	ps := m.StartSpan(obs.PhasePhase1)
	r.Record(rec.KindPhaseStart, int64(obs.PhasePhase1), 0, 0, 0)
	p1, err := phase1(ins, m.FlowMetrics(), c, r)
	ps.End()
	r.Record(rec.KindPhaseEnd, int64(obs.PhasePhase1), 0, 0, 0)
	if err != nil {
		return Result{}, err
	}
	g := ins.G
	if p1.Exact {
		return finish(ins, p1.Lo.Edges, p1, Stats{Phase1: p1.Stats}, true, m, r)
	}
	stats := Stats{Phase1: p1.Stats, Degraded: p1.Degraded}
	if opt.Phase1Only {
		chosen := p1.ChooseByPotential(g, ins.Bound)
		return finish(ins, chosen.Edges, p1, stats, false, m, r)
	}
	if err := checkFindArithmetic(g); err != nil {
		return Result{}, err
	}

	// Algorithm 1 proper: start from the bound-violating Lagrangian
	// endpoint (its cost is ≤ C_LP, establishing Lemma 11's induction) and
	// cancel bicameral cycles until the delay constraint holds. The
	// feasible endpoint Lo remains a safety net.
	cur := p1.Hi.Edges.Clone()
	curCost := p1.Hi.Cost(g)
	curDelay := p1.Hi.Delay(g)
	loCost := p1.Lo.Cost(g)

	// C_ref is the C_OPT stand-in: the LP lower bound, escalated on demand
	// but never beyond the known feasible cost (C_OPT ≤ c(Lo)).
	cRef := p1.CLPCeil
	if opt.Figure1Ablation {
		cRef = g.SumCost() + 1
	}
	if cRef <= curCost {
		cRef = curCost + 1
	}
	maxIter := 10*g.NumEdges()*ins.K + 1000

	// Build the residual once and maintain it incrementally: applying a
	// candidate flips exactly the edges on its cycles (rg.Update), which is
	// bit-identical to rebuilding against the new solution but costs
	// O(cycle length) instead of O(m) per iteration.
	rg := residual.Build(g, cur)
	rg.SetRecorder(r)
	cs := m.StartSpan(obs.PhaseCancel)
	r.Record(rec.KindPhaseStart, int64(obs.PhaseCancel), 0, 0, 0)
	// degrade returns the anytime answer: the solutions this loop walks
	// through are delay-INfeasible until it exits, so the feasible phase-1
	// endpoint Lo is the best certified intermediate at every iteration. It
	// keeps the LowerBound certificate; only the cost factor is forfeited.
	degrade := func() (Result, error) {
		stats.Degraded = true
		r.Record(rec.KindDegraded, int64(obs.PhaseCancel), 0, 0, 0)
		cs.End()
		r.Record(rec.KindPhaseEnd, int64(obs.PhaseCancel), 0, 0, 0)
		return finish(ins, p1.Lo.Edges, p1, stats, false, m, r)
	}
	for curDelay > ins.Bound && stats.Iterations < maxIter {
		// Injected cancellation trips the real canceller so the whole
		// degraded path (kernel bail-outs included) is exercised, not
		// simulated. A nil canceller ignores the trip: there is no
		// cancellation machinery to exercise.
		if opt.Faults.Check(fault.PointCancel) != nil {
			r.Record(rec.KindFaultHit, int64(fault.PointCancel), 0, 0, 0)
			c.Trip()
		}
		if c.Check() {
			return degrade()
		}
		cap := cRef
		if opt.Figure1Ablation {
			// Figure 1 ablation: “no cap” ≈ a cap beyond any cycle cost.
			cap = g.SumCost() + 1
		}
		params := bicameral.Params{
			DeltaD:  ins.Bound - curDelay,
			DeltaC:  cRef - curCost,
			CostCap: cap,
		}
		cand, bst, found := bicameral.Find(rg, params, bicameral.Options{
			Engine:      opt.Engine,
			FullSweep:   opt.FullSweep,
			Adversarial: opt.Figure1Ablation,
			Metrics:     m,
			Recorder:    r,
			Cancel:      c,
			Faults:      opt.Faults,
		})
		stats.BudgetsTried += bst.BudgetsTried
		if c.Stopped() {
			// A cancelled Find's not-found is no certificate (see
			// bicameral.Options.Cancel); don't escalate C_ref on it.
			return degrade()
		}
		if !found {
			// Lemma 9 guarantees a negative-delay cycle exists (the
			// instance is feasible), so the cap must be too tight: C_ref
			// underestimates C_OPT. Escalate toward the known upper bound.
			if cRef < loCost {
				stats.CRefEscalations++
				old := cRef
				cRef *= 2
				if cRef > loCost {
					cRef = loCost
				}
				r.Record(rec.KindCRefEscalate, old, cRef, 0, 0)
				continue
			}
			// Cap already at the feasible cost; last resort is the
			// relaxed-cap fallback.
			if bst.Fallback != nil {
				stats.RelaxedCap = true
				cand = *bst.Fallback
				r.Record(rec.KindRelaxedCap, cand.Cost, cand.Delay, 0, 0)
			} else {
				stats.FellBackToPhase1 = true
				r.Record(rec.KindFallback, rec.FallbackSearchExhausted, 0, 0, 0)
				cs.End()
				r.Record(rec.KindPhaseEnd, int64(obs.PhaseCancel), 0, 0, 0)
				return finish(ins, p1.Lo.Edges, p1, stats, false, m, r)
			}
		}
		next, err := rg.ApplyAll(cand.Cycles)
		if err != nil {
			cs.End()
			return Result{}, fmt.Errorf("krsp: internal: cycle application failed: %v", err)
		}
		// Incremental residual maintenance is an optimization, never a
		// correctness dependency: an update failure (genuine or injected)
		// heals by rebuilding from the new solution, which is what Update is
		// bit-identical to.
		if ferr := opt.Faults.Check(fault.PointResidualUpdate); ferr != nil {
			r.Record(rec.KindFaultHit, int64(fault.PointResidualUpdate), 0, 0, 0)
			rg = residual.Build(g, next)
			rg.SetRecorder(r)
			stats.ResidualRebuilds++
			r.Record(rec.KindResidualRebuild, int64(stats.Iterations), 0, 0, 0)
		} else if err := rg.Update(cand.Cycles); err != nil {
			rg = residual.Build(g, next)
			rg.SetRecorder(r)
			stats.ResidualRebuilds++
			r.Record(rec.KindResidualRebuild, int64(stats.Iterations), 0, 0, 0)
		}
		if opt.CollectTrace {
			stats.Trace = append(stats.Trace, IterationRecord{
				Cost: curCost, Delay: curDelay, CRef: cRef,
				CycleCost: cand.Cost, CycleDelay: cand.Delay,
				Type: int(cand.Type),
			})
		}
		cur = next
		curCost += cand.Cost   //lint:allow weightovf solution aggregate over MaxWeight-capped edges; ≤ m·MaxWeight
		curDelay += cand.Delay //lint:allow weightovf solution aggregate over MaxWeight-capped edges; ≤ m·MaxWeight
		if r != nil {
			edges := 0
			for _, cyc := range cand.Cycles {
				edges += len(cyc.Edges)
			}
			r.Record(rec.KindCancelStep, int64(edges), cand.Cost, cand.Delay, int64(cand.Type))
		}
		stats.Iterations++
		if cand.Type >= 0 && int(cand.Type) < 3 {
			stats.CyclesByType[cand.Type]++
		}
		if curCost >= cRef && curDelay > ins.Bound {
			// Keep ΔC positive for the next round.
			stats.CRefEscalations++
			old := cRef
			cRef = curCost + 1
			if cRef < p1.CLPCeil {
				cRef = p1.CLPCeil
			}
			r.Record(rec.KindCRefEscalate, old, cRef, 0, 0)
		}
	}
	cs.End()
	r.Record(rec.KindPhaseEnd, int64(obs.PhaseCancel), 0, 0, 0)
	if curDelay > ins.Bound {
		// Iteration cap hit: fall back to the feasible endpoint.
		stats.FellBackToPhase1 = true
		r.Record(rec.KindFallback, rec.FallbackIterCap, 0, 0, 0)
		return finish(ins, p1.Lo.Edges, p1, stats, false, m, r)
	}
	// Return the cheaper of the cancelled solution and the feasible
	// endpoint (both meet the bound).
	if loCost < curCost && !opt.Figure1Ablation {
		stats.FellBackToPhase1 = true
		r.Record(rec.KindFallback, rec.FallbackCheaper, 0, 0, 0)
		return finish(ins, p1.Lo.Edges, p1, stats, false, m, r)
	}
	return finish(ins, cur, p1, stats, false, m, r)
}

// finish decomposes a feasible flow into paths and assembles the Result.
// Flow cycles left over by decomposition are dropped: with nonnegative
// weights that never increases cost or delay.
func finish(ins graph.Instance, edges graph.EdgeSet, p1 Phase1Result, stats Stats, exact bool, m *obs.Registry, r *rec.Recorder) (Result, error) {
	ds := m.StartSpan(obs.PhaseDecompose)
	defer ds.End()
	r.Record(rec.KindPhaseStart, int64(obs.PhaseDecompose), 0, 0, 0)
	paths, _, err := flow.Decompose(ins.G, edges, ins.S, ins.T, ins.K)
	r.Record(rec.KindPhaseEnd, int64(obs.PhaseDecompose), 0, 0, 0)
	if err != nil {
		return Result{}, fmt.Errorf("krsp: internal: decompose: %v", err)
	}
	sol := graph.Solution{Paths: paths}
	res := Result{
		Solution:   sol,
		Cost:       sol.Cost(ins.G),
		Delay:      sol.Delay(ins.G),
		LowerBound: p1.CLPCeil,
		Exact:      exact,
		Stats:      stats,
	}
	var flags int64
	if stats.Degraded {
		flags |= rec.FlagDegraded
	}
	if exact {
		flags |= rec.FlagExact
	}
	if stats.RelaxedCap {
		flags |= rec.FlagRelaxedCap
	}
	if stats.FellBackToPhase1 {
		flags |= rec.FlagFellBack
	}
	r.Record(rec.KindSolveEnd, res.Cost, res.Delay, int64(stats.Iterations), flags)
	return res, nil
}
