package core

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cancel"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/shortest"
)

// DefaultPhase1Eps is the scaled kernel's duality-gap tolerance when
// Options.Phase1Eps is unset: stop the λ search once the best dual lower
// bound is within 12.5% of the feasible endpoint's cost.
const DefaultPhase1Eps = 0.125

// phase1Kernel dispatches on Options.Phase1Kernel. The classic kernel is
// the default and stays bit-identical release to release; the scaled kernel
// is the ablatable Ashvinkumar–Bernstein–Karczmarz-style alternate.
func phase1Kernel(ins graph.Instance, opt Options, fm *obs.FlowMetrics, c *cancel.Canceller) (Phase1Result, error) {
	switch opt.Phase1Kernel {
	case "", "classic":
		return phase1(ins, fm, c, opt.Recorder)
	case "scaled":
		eps := opt.Phase1Eps
		if eps == 0 {
			eps = DefaultPhase1Eps
		}
		return phase1Scaled(ins, eps, fm, c, opt.Recorder)
	default:
		return Phase1Result{}, fmt.Errorf("krsp: unknown phase-1 kernel %q (want classic or scaled)", opt.Phase1Kernel)
	}
}

// Phase1Scaled is the scaled first-phase kernel behind
// Options.Phase1Kernel = "scaled", exposed for ablation tooling and
// benchmarks. Relative to Phase1 it keeps both endpoint flows exact (so
// feasibility verdicts — ErrNoKPaths, ErrDelayInfeasible, Exact — are
// identical), but restricts the interior of the λ search: augmentation
// Dijkstras stop at the sink with capped potential repair (exact per flow,
// see flow.KFlowSolver.MinCostKFlowTarget), and the search exits as soon as
// the duality gap c(Lo) − L closes within ε·L. The reported CLP is then a
// valid lower bound with C_LP ≤ (1+ε)·CLP, by weak duality plus
// C_LP ≤ c(Lo).
func Phase1Scaled(ins graph.Instance, eps float64) (Phase1Result, error) {
	if eps <= 0 {
		return Phase1Result{}, fmt.Errorf("krsp: phase-1 eps must be positive (got %g)", eps)
	}
	return phase1Scaled(ins, eps, nil, nil, nil)
}

func phase1Scaled(ins graph.Instance, eps float64, fm *obs.FlowMetrics, c *cancel.Canceller, r *rec.Recorder) (Phase1Result, error) {
	if eps <= 0 {
		return Phase1Result{}, fmt.Errorf("krsp: phase-1 eps must be positive (got %g)", eps)
	}
	if err := ins.Validate(); err != nil {
		return Phase1Result{}, err
	}
	g, s, t, k, bound := ins.G, ins.S, ins.T, ins.K, ins.Bound
	// float64 → exact dyadic rational: the gap test below stays in integer
	// arithmetic, so the kernel is deterministic for any eps value.
	epsRat := new(big.Rat).SetFloat64(eps)

	kf := flow.NewKFlowSolver(graph.NewCSR(g))
	kf.SetRecorder(r)
	// Endpoint flows use the full (non-target-stopped) rounds: their delay
	// values gate the Exact shortcut and the infeasibility verdict, and
	// target-stopping could tie-break onto a different optimal flow.
	sumC, sumD := g.SumCost(), g.SumDelay()
	if err := checkProbe(sumC, sumD, shortest.LinCost); err != nil {
		return Phase1Result{}, err
	}
	fc, err := kf.MinCostKFlow(s, t, k, shortest.LinCost, fm, c)
	if err != nil {
		if errors.Is(err, cancel.ErrCancelled) {
			return Phase1Result{}, fmt.Errorf("%w: deadline hit during the min-cost endpoint flow", ErrNoProgress)
		}
		return Phase1Result{}, fmt.Errorf("%w: %v", ErrNoKPaths, err)
	}
	if fc.Delay(g) <= bound {
		clp := new(big.Rat).SetInt64(fc.Cost(g))
		return Phase1Result{Lo: fc, Hi: fc, Exact: true,
			CLP: clp, CLPCeil: fc.Cost(g),
			Stats: Phase1Stats{CLPNum: fc.Cost(g), CLPDen: 1}}, nil
	}
	if err := checkProbe(sumC, sumD, shortest.LinDelay); err != nil {
		return Phase1Result{}, err
	}
	fd, err := kf.MinCostKFlow(s, t, k, shortest.LinDelay, fm, c)
	if err != nil {
		if errors.Is(err, cancel.ErrCancelled) {
			return Phase1Result{}, fmt.Errorf("%w: deadline hit during the min-delay endpoint flow", ErrNoProgress)
		}
		return Phase1Result{}, fmt.Errorf("%w: %v", ErrNoKPaths, err)
	}
	if fd.Delay(g) > bound {
		return Phase1Result{}, fmt.Errorf("%w: min delay %d > bound %d",
			ErrDelayInfeasible, fd.Delay(g), bound)
	}

	hi, lo := fc, fd
	var st Phase1Stats
	degraded := false
	best := new(big.Rat).SetInt64(fc.Cost(g)) // L(0) = unconstrained min cost
	gap := new(big.Rat)
	tol := new(big.Rat)
	for iter := 0; iter < 256; iter++ {
		if c.Check() {
			degraded = true
			break
		}
		// ε early exit: C_LP ≤ c(Lo) always (Lo is a feasible integral
		// flow), so once c(Lo) − best ≤ ε·best the true optimum can improve
		// on the tracked dual by at most the tolerance — stop refining.
		if best.Sign() > 0 {
			gap.SetInt64(lo.Cost(g))
			gap.Sub(gap, best)
			tol.Mul(epsRat, best)
			if gap.Cmp(tol) <= 0 {
				break
			}
		}
		st.LambdaIterations++
		p := lo.Cost(g) - hi.Cost(g)
		q := hi.Delay(g) - lo.Delay(g)
		if q <= 0 {
			return Phase1Result{}, fmt.Errorf("krsp: internal: lagrangian invariant broken (q=%d)", q)
		}
		if p < 0 {
			p = 0
		}
		w := shortest.LinCombine(q, p)
		if err := checkProbe(sumC, sumD, w); err != nil {
			return Phase1Result{}, err
		}
		f, err := kf.MinCostKFlowTarget(s, t, k, w, fm, c)
		if err != nil {
			if errors.Is(err, cancel.ErrCancelled) {
				degraded = true
				break
			}
			return Phase1Result{}, fmt.Errorf("krsp: internal: %v", err)
		}
		wf := f.Weight(g, w)
		lval := new(big.Rat).SetFrac64(wf-p*bound, q)
		if lval.Cmp(best) > 0 {
			best = lval
		}
		r.Record(rec.KindLambdaIter, int64(st.LambdaIterations), p, q, wf)
		if r != nil {
			// Same convergence snapshot as the classic kernel — this gap is
			// the very quantity the ε exit above tests, so the recorded
			// trajectory shows exactly why (and when) the search stopped.
			lc := lo.Cost(g)
			dualFloor := ratFloorInt64(best)
			r.Record(rec.KindDualityGap, int64(st.LambdaIterations), lc, dualFloor, lc-dualFloor)
		}
		if wf == hi.Weight(g, w) || wf == lo.Weight(g, w) {
			break // λ* reached: f ties an endpoint
		}
		if f.Delay(g) <= bound {
			lo = f
		} else {
			hi = f
		}
	}
	res := Phase1Result{Lo: lo, Hi: hi, CLP: best, Degraded: degraded}
	num, den := best.Num(), best.Denom()
	st.CLPNum, st.CLPDen = num.Int64(), den.Int64()
	ceil := new(big.Int).Add(num, new(big.Int).Sub(den, big.NewInt(1)))
	ceil.Div(ceil, den)
	res.CLPCeil = ceil.Int64()
	if res.CLPCeil < 1 {
		res.CLPCeil = 1
	}
	res.Stats = st
	return res, nil
}
