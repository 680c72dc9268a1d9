// Package bicameral implements the paper's central machinery: finding
// bicameral cycles (Definition 10) in a residual graph that carries both
// negative costs and negative delays.
//
// Let r = ΔD/ΔC with ΔD = D − Σd(P) (negative while the delay bound is
// violated) and ΔC = C_ref − Σc(P) (positive while the solution is cheaper
// than the reference bound). All three bicameral types collapse into one
// scalar test — for a cycle O:
//
//	W(O) := ΔC·d(O) − ΔD·c(O) < 0  and  |c(O)| ≤ CostCap
//
// (type-0 cycles have W < 0 outright; type-1/2 are exactly the W ≤ 0
// cycles with the matching signs). The search therefore reduces to
// negative-cycle detection under the combined integer weight W on the
// cost-layered auxiliary graph, which enforces the cost cap. This is the
// combinatorial engine; an LP engine solving the paper's LP (6) via the
// in-repo simplex is kept for the E8 ablation.
package bicameral

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/residual"
)

// Params carries the quantities of Definition 10.
type Params struct {
	// DeltaD is D − Σd(P_i): negative while the solution violates the
	// delay bound.
	DeltaD int64
	// DeltaC is C_ref − Σc(P_i) where C_ref is the best known lower bound
	// on C_OPT; must be positive when Find is called.
	DeltaC int64
	// CostCap bounds |c(O)| (the paper's “essential” constraint — see the
	// Figure 1 pathology). Typically C_ref.
	CostCap int64
}

// Weight is the combined scalar weight W(e) = ΔC·d(e) − ΔD·c(e).
// Instances should keep ΔC·d and ΔD·c below 2^62 to avoid overflow; the
// solver guards this at construction.
func (p Params) Weight(e graph.Edge) int64 {
	return p.DeltaC*e.Delay - p.DeltaD*e.Cost //lint:allow weightovf Find's entry guard keeps |Δ|·maxW·K below 2^61
}

// CycleType labels Definition 10's cases.
type CycleType int

const (
	// TypeNone marks a non-bicameral cycle.
	TypeNone CycleType = iota - 1
	// Type0: d < 0 ∧ c ≤ 0, or d ≤ 0 ∧ c < 0 — strictly improving.
	Type0
	// Type1: d < 0, 0 < c ≤ cap, d/c ≤ ΔD/ΔC — buys delay with cost.
	Type1
	// Type2: d ≥ 0, −cap ≤ c < 0, d/c ≥ ΔD/ΔC — buys cost with delay.
	Type2
)

func (t CycleType) String() string {
	switch t {
	case Type0:
		return "type-0"
	case Type1:
		return "type-1"
	case Type2:
		return "type-2"
	}
	return "none"
}

// Classify applies Definition 10 to a (cost, delay) pair using exact
// integer cross-multiplication.
func Classify(cost, delay int64, p Params) CycleType {
	switch {
	case (delay < 0 && cost <= 0) || (delay <= 0 && cost < 0):
		return Type0
	case delay < 0 && cost > 0 && cost <= p.CostCap:
		if p.DeltaC > 0 && delay*p.DeltaC <= p.DeltaD*cost { //lint:allow weightovf cycle aggregates × Δ bounded by Find's entry guard
			return Type1
		}
	case delay >= 0 && cost < 0 && -cost <= p.CostCap:
		if p.DeltaC > 0 && delay*p.DeltaC <= p.DeltaD*cost { //lint:allow weightovf cycle aggregates × Δ bounded by Find's entry guard
			return Type2
		}
	}
	return TypeNone
}

// Candidate is a bicameral cycle — or, more generally, a set of
// edge-disjoint residual cycles applied together (Proposition 7 covers
// sets; the classification uses the aggregate cost/delay).
type Candidate struct {
	Cycles []graph.Cycle
	Cost   int64
	Delay  int64
	Type   CycleType
}

// Engine selects the search implementation.
type Engine int

const (
	// EngineCombinatorial is the default: negative-W-cycle detection on
	// the TwoSided layered graph.
	EngineCombinatorial Engine = iota
	// EngineLP solves the paper's LP (6) on H_v^±(B) with the in-repo
	// simplex (Algorithm 3 as written). Small instances only.
	EngineLP
	// EngineMinRatio is the prior-work technique of [12, 18] (reversed
	// edges costed 0, parametric min d/c cycle search), kept for the E8
	// ablation. Incomplete on residual graphs with both weights negative —
	// that incompleteness is the paper's motivation.
	EngineMinRatio
)

func (e Engine) String() string {
	switch e {
	case EngineLP:
		return "lp"
	case EngineMinRatio:
		return "minratio"
	}
	return "combinatorial"
}

// Options tune the search.
type Options struct {
	Engine Engine
	// FullSweep walks B = 1, 2, 3, … exactly as Algorithm 3 does instead
	// of doubling (ablation E8; much slower). Budgets start at B = 1 and
	// end at Σ|c(e)| for the combinatorial engine (complete) and at
	// CostCap for the LP engine.
	FullSweep bool
	// Adversarial inverts candidate preference to the most expensive
	// qualifying cycle. It exists solely for experiment E3 (the Figure 1
	// pathology: what a worst-case-compliant selection could do); never
	// enable it for real solving.
	Adversarial bool
	// Metrics, when non-nil, receives search instrumentation: Find calls,
	// searches, candidates, budget escalations, and the counts of every
	// SPFA kernel the search runs. Nil (the default) records nothing and
	// costs nothing. Metrics never influence results.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives one search-done flight-recorder
	// event per Find (found flag, budgets tried, candidates inspected,
	// final budget) and a fault-hit event when the cycle-search fault point
	// trips. Nil (the default) records nothing and costs nothing.
	Recorder *rec.Recorder
	// Cancel, when non-nil, is polled throughout the search; once stopped,
	// Find returns found=false as fast as it can. A search that a
	// cancellation cut short always leaves Cancel stopped, and a cancelled
	// found=false is NOT a completeness certificate — callers must check
	// Cancel.Stopped() before treating it as "no bicameral cycle exists"
	// (core does). A Find that returns with Cancel not stopped equals the
	// uncancelled Find.
	Cancel *cancel.Canceller
	// Faults, when non-nil, is consulted at the deterministic injection
	// sites (fault.PointCycleSearch on entry to Find, fault.PointLPRound per
	// LP solve). Nil is a free no-op.
	Faults *fault.Registry
}

// Stats instruments a search.
type Stats struct {
	BudgetsTried int
	Searches     int
	Candidates   int
	LastBudget   int64
	// Fallback holds the best W<0 candidate that failed the cost cap, if
	// any; callers may use it under a relaxed-cap policy.
	Fallback *Candidate
}

// Find searches the residual graph for a bicameral cycle under the given
// parameters. found=false means the engine exhausted its budget schedule
// without a cap-respecting candidate (Stats.Fallback may still be set).
func Find(rg *residual.Graph, p Params, o Options) (Candidate, Stats, bool) {
	if p.DeltaC <= 0 {
		//lint:allow nopanic caller contract (core escalates C_ref before calling); programmer error
		panic(fmt.Sprintf("bicameral: DeltaC=%d must be positive (escalate C_ref first)", p.DeltaC))
	}
	if p.CostCap < 1 {
		//lint:allow nopanic caller contract; Definition 10 needs a positive cap
		panic(fmt.Sprintf("bicameral: CostCap=%d must be ≥ 1", p.CostCap))
	}
	// Overflow guard: the combined weight multiplies ΔC/ΔD by edge weights
	// and then by the lexicographic factor K ≈ n·max(|w|); keep the whole
	// product comfortably inside int64. core.Solve checks both inequalities
	// for every Find its loop can make and returns core.ErrWeightsTooLarge
	// instead, so a panic here is a bug in that check or a direct caller.
	view := rg.View()
	n := view.NumNodes()
	var maxW int64 = 1
	for i := 0; i < view.NumEdges(); i++ {
		if a := abs64(view.Cost(graph.EdgeID(i))); a > maxW {
			maxW = a
		}
		if a := abs64(view.Delay(graph.EdgeID(i))); a > maxW {
			maxW = a
		}
	}
	scale := abs64(p.DeltaC)
	if a := abs64(p.DeltaD); a > scale {
		scale = a
	}
	if maxW > (int64(1)<<60)/int64(n+2) {
		//lint:allow nopanic exact-arithmetic bug guard; core's checkFindArithmetic refuses such instances before the cancellation loop
		panic(fmt.Sprintf("bicameral: edge weights up to %d overflow the layered factor; rescale the instance", maxW))
	}
	k := int64(n+1)*maxW + 1
	if scale > (int64(1)<<61)/(2*maxW)/k {
		//lint:allow nopanic exact-arithmetic bug guard; core's checkFindArithmetic bounds |Δ| by max(Σcost+1, Σdelay) before the cancellation loop
		panic(fmt.Sprintf("bicameral: weights too large for exact arithmetic "+
			"(|Δ|=%d, max edge weight %d, n=%d); rescale the instance",
			scale, maxW, n))
	}
	var (
		cand  Candidate
		st    Stats
		found bool
	)
	// Injected cycle-search failure: report "nothing found". Safe because a
	// not-found verdict only ever steers core toward its fallbacks (C_ref
	// escalation, relaxed cap, phase-1 flow) — never into an infeasible
	// output.
	if err := o.Faults.Check(fault.PointCycleSearch); err != nil {
		o.Recorder.Record(rec.KindFaultHit, int64(fault.PointCycleSearch), 0, 0, 0)
		return cand, st, false
	}
	switch o.Engine {
	case EngineLP:
		cand, st, found = findLP(rg, p, o)
	case EngineMinRatio:
		cand, st, found = findMinRatio(rg, p, o)
	default:
		cand, st, found = findCombinatorial(rg, p, o, k)
	}
	if bm := o.Metrics.BicameralMetrics(); bm != nil {
		bm.Finds.Inc()
		bm.Searches.Add(int64(st.Searches))
		bm.Candidates.Add(int64(st.Candidates))
		bm.BudgetEscalations.Add(int64(st.BudgetsTried))
		if !found {
			bm.NotFound.Inc()
		}
	}
	var foundArg int64
	if found {
		foundArg = 1
	}
	o.Recorder.Record(rec.KindSearchDone, foundArg, int64(st.BudgetsTried), int64(st.Candidates), st.LastBudget)
	return cand, st, found
}

// better reports whether a should be preferred over b as the returned
// candidate. Preference: delay-reducing first (type-0, then type-1 by most
// negative delay-per-cost), then type-2 (least delay damage per cost
// saved). The paper's Algorithm 3 step 3 similarly arbitrates between the
// best negative-delay and negative-cost cycles. With adversarial=true the
// most expensive qualifying candidate wins instead (experiment E3).
func better(a, b Candidate, adversarial bool) bool {
	if adversarial {
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		return a.Delay > b.Delay
	}
	rank := func(t CycleType) int {
		switch t {
		case Type0:
			return 0
		case Type1:
			return 1
		case Type2:
			return 2
		}
		return 3
	}
	if rank(a.Type) != rank(b.Type) {
		return rank(a.Type) < rank(b.Type)
	}
	switch a.Type {
	case Type0:
		if a.Delay != b.Delay {
			return a.Delay < b.Delay
		}
		return a.Cost < b.Cost
	case Type1:
		// Most negative d/c: a.Delay/a.Cost < b.Delay/b.Cost with positive
		// denominators ⇔ a.Delay·b.Cost < b.Delay·a.Cost.
		return a.Delay*b.Cost < b.Delay*a.Cost //lint:allow weightovf cross-multiplied ratio of cycle aggregates; bounded by Find's entry guard
	case Type2:
		// Largest d/c (least damage): with both costs negative,
		// a.Delay/a.Cost > b.Delay/b.Cost ⇔ a.Delay·b.Cost > b.Delay·a.Cost.
		return a.Delay*b.Cost > b.Delay*a.Cost //lint:allow weightovf cross-multiplied ratio of cycle aggregates; bounded by Find's entry guard
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
