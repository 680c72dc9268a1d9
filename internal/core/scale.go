package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// SolveScaledCtx is Theorem 4: for fixed ε₁, ε₂ > 0 it rounds edge delays
// to multiples of ε₁·D/n′ and edge costs to multiples of ε₂·Ĉ/n′ (n′ = k·n,
// the maximum number of edges any solution can use; Ĉ is the phase-1 LP
// lower bound standing in for C_OPT), runs the pseudo-polynomial Solve on
// the scaled instance, and reports the chosen paths under the ORIGINAL
// weights. The scaled instance has delays bounded by ⌊n′/ε₁⌋ and costs by
// O(n′/ε₂), making Solve polynomial; rounding loses at most ε₁·D in delay
// and ε₂·Ĉ in cost, giving the (1+ε₁, 2+ε₂) bifactor.
//
// ctx has SolveCtx's anytime semantics: deadlines degrade to the best
// feasible solution reached so far (here the outer phase-1 endpoint if the
// inner scaled solve never got that far) rather than erroring, and
// ErrNoProgress is returned only when the deadline fired before the
// original-weights phase 1 produced any feasible k-flow.
func SolveScaledCtx(ctx context.Context, ins graph.Instance, eps1, eps2 float64, opt Options) (Result, error) {
	c := cancel.New(ctx, opt.PollEvery)
	defer c.Release()
	total := opt.Metrics.StartSpan(obs.PhaseTotal)
	res, err := solveScaled(ins, eps1, eps2, opt, c)
	total.End()
	recordOutcome(opt.Metrics, res, err)
	return res, err
}

func solveScaled(ins graph.Instance, eps1, eps2 float64, opt Options, c *cancel.Canceller) (Result, error) {
	if !(eps1 > 0) || !(eps2 > 0) || math.IsInf(eps1, 1) || math.IsInf(eps2, 1) {
		return Result{}, fmt.Errorf("krsp: epsilons must be positive (got %g, %g)", eps1, eps2)
	}
	if err := ins.Validate(); err != nil {
		return Result{}, err
	}
	m := opt.Metrics
	r := opt.Recorder
	r.Record(rec.KindSolveStart, int64(ins.G.NumNodes()), int64(ins.G.NumEdges()), int64(ins.K), ins.Bound)
	// Phase 1 on the ORIGINAL instance supplies Ĉ and settles feasibility
	// questions exactly (scaling must not change feasibility verdicts).
	ps := m.StartSpan(obs.PhasePhase1)
	r.Record(rec.KindPhaseStart, int64(obs.PhasePhase1), 0, 0, 0)
	p1, err := phase1(ins, m.FlowMetrics(), c, r)
	ps.End()
	r.Record(rec.KindPhaseEnd, int64(obs.PhasePhase1), 0, 0, 0)
	if err != nil {
		return Result{}, err
	}
	if p1.Exact {
		return finish(ins, p1.Lo.Edges, p1, Stats{Phase1: p1.Stats}, true, m, r)
	}
	g := ins.G
	nPrime := int64(ins.K) * int64(g.NumNodes())
	if nPrime < 1 {
		nPrime = 1
	}
	// θd, θc are the rounding granularities, clamped to [1, 2^62] before
	// the conversion, since Go leaves a float outside int64's range to the
	// platform. θ = 1 keeps the weights exact (the instance was already
	// small); θ = 2^62 exceeds every weight, which then rounds to 0.
	thetaD := int64(min(max(eps1*float64(ins.Bound)/float64(nPrime), 1), 1<<62))
	thetaC := int64(min(max(eps2*float64(p1.CLPCeil)/float64(nPrime), 1), 1<<62))

	// The scale span covers rounding plus the inner pseudo-polynomial
	// solve; the inner run goes through the internal solve so it is not
	// double-counted as a second krsp_solves_total.
	ss := m.StartSpan(obs.PhaseScale)
	r.Record(rec.KindPhaseStart, int64(obs.PhaseScale), 0, 0, 0)
	sg := graph.New(g.NumNodes())
	for _, e := range g.EdgesView() {
		sg.AddEdge(e.From, e.To, e.Cost/thetaC, e.Delay/thetaD)
	}
	scaled := graph.Instance{
		G: sg, S: ins.S, T: ins.T, K: ins.K,
		Bound: ins.Bound / thetaD,
		Name:  ins.Name + " (scaled)",
	}
	sres, err := solve(scaled, opt, c)
	ss.End()
	r.Record(rec.KindPhaseEnd, int64(obs.PhaseScale), 0, 0, 0)
	if err != nil {
		if errors.Is(err, ErrNoProgress) {
			// The deadline hit inside the scaled re-solve before it rebuilt
			// its endpoint flows — but the OUTER phase 1 already holds a
			// feasible flow in original weights: degrade to it.
			return finish(ins, p1.Lo.Edges, p1,
				Stats{Phase1: p1.Stats, Degraded: true}, false, m, r)
		}
		// Rounding delays down can never make a feasible instance
		// infeasible, so errors here are structural and propagate.
		return Result{}, err
	}
	// Re-measure the chosen paths in original weights. Edge IDs coincide
	// between g and sg by construction.
	sol := sres.Solution
	res := Result{
		Solution:   sol,
		Cost:       sol.Cost(g),
		Delay:      sol.Delay(g),
		LowerBound: p1.CLPCeil,
		Stats:      sres.Stats,
	}
	res.Stats.Phase1 = p1.Stats
	if p1.Degraded {
		res.Stats.Degraded = true
	}
	return res, nil
}
