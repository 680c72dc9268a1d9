package bicameral

import (
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// findMinRatio is the prior-work engine modelled on [12, 18]: those papers
// zero out the COST of reversed residual edges so that all costs stay
// nonnegative, then search for the cycle minimizing d(O)/c(O) — computable
// in polynomial time precisely because only one weight goes negative. We
// reproduce that search with a parametric negative-cycle test (μ = p/q,
// weight q·d(e) − p·ĉ(e) with ĉ = max(c, 0)) and then classify the found
// cycle against Definition 10 using the TRUE residual costs. The engine is
// an E8 ablation arm: it shows what the pre-bicameral technique finds and
// misses on residual graphs where both weights are negative.
func findMinRatio(rg *residual.Graph, p Params, o Options) (Candidate, Stats, bool) {
	var st Stats
	seeds := rg.ReversedSeeds()
	if len(seeds) == 0 {
		return Candidate{}, st, false
	}
	// One workspace for the whole parametric search: up to ~50 SPFA sweeps
	// share it (extracted cycles are fresh slices, so reuse is safe). A
	// cancelled sweep reports "no cycle", which would steer the bisection,
	// so the search leaves as soon as the Canceller has stopped.
	view := rg.View()
	ws := shortest.NewWorkspace(view.NumNodes())
	ws.SetCancel(o.Cancel)

	// Fast exits: a plain negative-delay cycle (the μ → −∞ limit).
	st.Searches++
	if _, cyc, ok := shortest.SPFAAllCSRInto(ws, view, shortest.LinDelay, nil); !ok {
		if cand, good := classifyCycle(rg, cyc, p, &st); good {
			return cand, st, true
		}
	}

	// Parametric search: the most negative feasible ratio μ = d/ĉ over
	// cycles with ĉ > 0. Binary search on p/q with integer weights. ĉ lives
	// in a scratch copy of the view: forward edges carry their nonnegative
	// problem cost and reversed edges its negation, so zeroing the reversed
	// costs gives ĉ = max(c, 0), and the weight d − μ·ĉ is the linear
	// weighting −μ·ĉ + d over it.
	cHat := view.Clone()
	sumD := int64(0)
	for i := 0; i < view.NumEdges(); i++ {
		id := graph.EdgeID(i)
		delay := view.Delay(id)
		if view.Reversed(id) {
			cHat.SetWeights(id, 0, delay)
		}
		if delay >= 0 {
			sumD += delay //lint:allow weightovf Σ|d| over MaxWeight-capped edges; ≤ m·MaxWeight
		} else {
			sumD -= delay
		}
	}
	lo, hi := -sumD, int64(0) // μ ∈ [−Σ|d|, 0]
	var bestCycle graph.Cycle
	haveCycle := false
	for iter := 0; iter < 48 && lo < hi && !o.Cancel.Stopped(); iter++ {
		mid := lo + (hi-lo)/2 // try to certify a cycle with d − μ·ĉ < 0
		st.Searches++
		if _, cyc, ok := shortest.SPFAAllCSRInto(ws, cHat, shortest.LinCombine(-mid, 1), nil); !ok {
			bestCycle = cyc
			haveCycle = true
			hi = mid // a cycle with ratio < mid exists: tighten upward bound
		} else {
			lo = mid + 1
		}
	}
	if !haveCycle || o.Cancel.Stopped() {
		return Candidate{}, st, false
	}
	if cand, good := classifyCycle(rg, bestCycle, p, &st); good {
		return cand, st, true
	}
	return Candidate{}, st, false
}

// classifyCycle measures a residual cycle with TRUE weights and applies
// Definition 10, recording a fallback when it only fails the cap.
func classifyCycle(rg *residual.Graph, cyc graph.Cycle, p Params, st *Stats) (Candidate, bool) {
	cc, dd := rg.CycleCost(cyc), rg.CycleDelay(cyc)
	st.Candidates++
	cand := Candidate{Cycles: []graph.Cycle{cyc}, Cost: cc, Delay: dd,
		Type: Classify(cc, dd, p)}
	if cand.Type != TypeNone {
		return cand, true
	}
	if p.DeltaC*dd-p.DeltaD*cc < 0 && st.Fallback == nil {
		c := cand
		st.Fallback = &c
	}
	return cand, false
}
