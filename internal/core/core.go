// Package core implements the paper's kRSP algorithms behind one public
// API:
//
//   - Phase1 — the LP-rounding first phase (Lemma 5): a solution whose
//     delay/D + cost/C_LP is at most 2, computed combinatorially via a
//     Lagrangian search over min-cost k-flows (exactly the LP optimum, by
//     strong duality over the flow polytope with one budget row).
//   - Solve and SolveCtx — Algorithm 1 (Lemma 3): phase 1 followed by
//     cycle cancellation with bicameral cycles, yielding delay ≤ D and cost
//     ≤ 2·C_OPT in pseudo-polynomial time.
//   - SolveScaledCtx — Theorem 4: cost/delay scaling around Solve,
//     yielding the polynomial (1+ε₁, 2+ε₂) bifactor guarantee.
//
// SolveBatchCtx runs many instances on a worker pool. The Ctx entry points
// take a deadline and degrade to the best feasible answer when it fires.
// All public entry points validate the instance and return typed errors
// for the two infeasibility modes (not enough disjoint paths; delay bound
// unreachable).
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bicameral"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/shortest"
)

// ErrNoKPaths reports that fewer than k edge-disjoint s→t paths exist.
var ErrNoKPaths = errors.New("krsp: fewer than k edge-disjoint paths exist")

// ErrDelayInfeasible reports that even the delay-minimal k disjoint paths
// exceed the bound D.
var ErrDelayInfeasible = errors.New("krsp: no k disjoint paths within the delay bound")

// ErrWeightsTooLarge reports a valid instance whose weights are too large
// for the solver's exact int64 arithmetic: a phase-1 probe weighting
// q·cost + p·delay could wrap, or the bicameral search's layered weights
// could (see checkProbe and checkFindArithmetic). Edge weights up to
// graph.MaxWeight pass Validate, but a few such edges on a small graph can
// already trip either check. Rescaling the weights down avoids it.
var ErrWeightsTooLarge = errors.New("krsp: edge weights too large for exact arithmetic")

// ErrNoProgress reports that a SolveCtx deadline fired before phase 1 had
// produced any feasible k-flow — there is nothing, not even a degraded
// solution, to return. Once phase 1's delay-minimal flow exists, deadlines
// degrade instead (Stats.Degraded) and never produce this error.
var ErrNoProgress = errors.New("krsp: cancelled before any feasible k-flow was found")

// Result is a solved kRSP instance.
type Result struct {
	Solution graph.Solution
	Cost     int64
	Delay    int64
	// LowerBound is an integer lower bound on C_OPT (⌈C_LP⌉ from phase 1),
	// certifying the approximation factor Cost/LowerBound.
	LowerBound int64
	// Exact reports that Cost is known to equal C_OPT (the unconstrained
	// min-cost flow happened to satisfy the delay bound).
	Exact bool
	Stats Stats
}

// Stats instruments a solve. The JSON tags are part of the daemon's
// response schema (cmd/krspd echoes Stats per request) and of krsp's
// -trace JSONL output.
type Stats struct {
	// Phase1 records the first-phase Lagrangian search.
	Phase1 Phase1Stats `json:"phase1"`
	// Iterations counts cycle cancellations performed.
	Iterations int `json:"iterations"`
	// CyclesByType counts applied candidates by bicameral type (0,1,2).
	CyclesByType [3]int `json:"cyclesByType"`
	// CRefEscalations counts how often the C_OPT stand-in had to grow
	// because no bicameral cycle existed under the current cap.
	CRefEscalations int `json:"crefEscalations"`
	// RelaxedCap reports that the final answer used a cycle beyond the
	// Definition-10 cost cap (a documented deviation used only when the
	// cap-respecting search is exhausted; the cost bound then degrades).
	RelaxedCap bool `json:"relaxedCap"`
	// FellBackToPhase1 reports that the cancellation loop could not beat
	// the feasible phase-1 flow, which was returned instead.
	FellBackToPhase1 bool `json:"fellBackToPhase1"`
	// BudgetsTried accumulates bicameral search budget escalations.
	BudgetsTried int `json:"budgetsTried"`
	// Degraded reports that a SolveCtx deadline (or injected cancellation)
	// stopped the solve early: the result is the best delay-feasible
	// solution reached so far (Delay ≤ D always holds; the 2·C_OPT cost
	// bound may not). The anytime guarantee of Lemma 3's loop shape: phase
	// 1's feasible endpoint is valid from the moment it exists.
	Degraded bool `json:"degraded"`
	// ResidualRebuilds counts full residual-graph rebuilds forced by a
	// failed (or fault-injected) incremental update — the self-healing path.
	ResidualRebuilds int `json:"residualRebuilds"`
	// Trace holds one record per cancellation iteration when
	// Options.CollectTrace is set (nil otherwise).
	Trace []IterationRecord `json:"trace,omitempty"`
}

// IterationRecord captures the state of one Algorithm-1 iteration, enough
// to verify Lemma 12's monotonicity (r = ΔD/ΔC nondecreasing) offline.
type IterationRecord struct {
	// Cost and Delay are the solution totals BEFORE applying the cycle.
	Cost  int64 `json:"cost"`
	Delay int64 `json:"delay"`
	// CRef is the C_OPT stand-in in force.
	CRef int64 `json:"cref"`
	// CycleCost, CycleDelay and Type describe the applied candidate.
	CycleCost  int64 `json:"cycleCost"`
	CycleDelay int64 `json:"cycleDelay"`
	Type       int   `json:"type"`
}

// Options tune Solve, SolveCtx, SolveScaledCtx and SolveBatchCtx.
type Options struct {
	// Engine selects the bicameral search engine (default combinatorial).
	Engine bicameral.Engine
	// FullSweep uses Algorithm 3's unit-step budget schedule (ablation).
	FullSweep bool
	// Phase1Only stops after the first phase, returning the better of the
	// two Lagrangian endpoint flows — the (2,2)-style baseline of [9].
	Phase1Only bool
	// Figure1Ablation reproduces the paper's Figure 1 pathology (experiment
	// E3): it removes Definition 10's |c(O)| ≤ C_OPT cap, picks the most
	// expensive qualifying cycle at every step, replaces the LP lower bound
	// with Σc(e) as the C_OPT stand-in, and never returns the feasible
	// phase-1 endpoint in place of a costlier cancelled solution (the
	// paper's Algorithm 1 has no such net). Never use it for real solving.
	Figure1Ablation bool
	// CollectTrace records one IterationRecord per cancellation in
	// Stats.Trace (off by default: it allocates).
	CollectTrace bool
	// Metrics, when non-nil, receives solver telemetry: outcome counters
	// recorded from Stats after each SolveCtx/SolveScaledCtx, per-phase
	// duration spans, and the flow/bicameral/SPFA kernel counts of every layer
	// underneath (DESIGN.md §9 catalogues the names). Nil (the default) is
	// a no-op sink with zero cost on the solve path — `make bench-guard`
	// enforces that SolveN60K3 allocates nothing extra with Metrics unset.
	// Metrics never influence results.
	Metrics *obs.Registry
	// Recorder, when non-nil, is the flight recorder receiving the solve's
	// structured event stream: phase transitions, λ-iterations with their
	// duality gap, augmentation rounds, cancellation steps, C_ref
	// escalations, degradation decisions, and armed fault-point hits
	// (DESIGN.md §13 documents the schema; cmd/krsptrace renders dumps).
	// Where Metrics aggregates across solves, the Recorder captures the
	// trajectory of THIS solve. Nil (the default) is a free no-op sink —
	// `make bench-guard` enforces that SolveN60K3 allocates nothing extra
	// with Recorder unset. Recorded events never influence results.
	Recorder *rec.Recorder
	// PollEvery is the cancellation poll stride for SolveCtx/SolveScaledCtx:
	// kernels check the context's done channel once per PollEvery loop
	// iterations (default cancel.DefaultPollStride). Smaller values tighten
	// deadline latency at the price of more channel selects. Ignored under
	// a context that is never done, such as Solve's Background.
	PollEvery int
	// Faults, when non-nil, is the fault-injection registry consulted at the
	// solver's deterministic injection sites (residual update, cycle search,
	// LP rounding, cancellation). Nil (the default) is a free no-op. Test
	// and chaos tooling only — never wire it in production.
	Faults *fault.Registry
}

// Feasibility describes why an instance is (in)feasible.
type Feasibility struct {
	MaxDisjoint int   // max number of edge-disjoint s→t paths
	MinDelay    int64 // min total delay of any k disjoint paths (if k fit)
	OK          bool
}

// CheckFeasible computes the feasibility certificate: k ≤ max-flow and
// min-delay k-flow ≤ D.
func CheckFeasible(ins graph.Instance) (Feasibility, error) {
	if err := ins.Validate(); err != nil {
		return Feasibility{}, err
	}
	f := Feasibility{MaxDisjoint: flow.MaxDisjointPaths(ins.G, ins.S, ins.T)}
	if f.MaxDisjoint < ins.K {
		return f, nil
	}
	df, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.LinDelay)
	if err != nil {
		return f, fmt.Errorf("krsp: internal: max-flow admitted k but min-cost flow failed: %w", err)
	}
	f.MinDelay = df.Delay(ins.G)
	f.OK = f.MinDelay <= ins.Bound
	return f, nil
}

// probeLimit caps the weight sum q·Σcost + p·Σdelay of a phase-1
// min-cost-flow probe; see checkProbe.
const probeLimit = 1 << 60

// checkProbe returns an ErrWeightsTooLarge error unless
// W = lw.Q·sumCost + lw.P·sumDelay ≤ 2^60, computed without wrapping.
// Phase 1 calls it before every min-cost-flow call, with the graph's total
// cost and delay and the probe's nonnegative weighting.
//
// W ≤ 2^60 keeps every int64 the probe computes inside int64, within
// ±6·2^60. Each edge weight is at most W, and a flow weight or a simple
// residual path length, a signed sum over distinct edges, lies in [−W, W].
// Potentials start at 0 and may go negative: round i of the min-cost flow
// moves each potential by f(v) − cap, which lies in [−μ_i, μ_i], where
// μ_i ≥ 0 is the round's reduced s→t distance. The repair is exact on the
// augmenting path, so pot[t] − pot[s] grows by μ_i per round, and μ_1 + …
// + μ_i is round i's unreduced residual s→t distance, a simple residual
// path's length, at most W. So every potential lies in [−W, W], and a
// reduced weight ±w + pot[u] − pot[v] lies in [−3W, 3W]. A label of either
// search is the reduced length of a simple residual path (a tree path, or
// one plus an arc to a vertex the search has not popped): its unreduced
// length plus two potentials, in [0, 3W], since reduced weights are
// nonnegative. The kernel's sums of two labels (meetings, and the stop
// test lastF + lastB) then lie in [0, 6W], and μ − distB[v] in [−3W, 3W].
// Finally p·D ≤ p·Σdelay ≤ W, because the λ search runs only when the
// min-cost flow's delay, at most Σdelay, exceeds D; so wf − p·D lies in
// [−W, W]. TestKFlowSolverAtProbeLimit (internal/flow) runs the kernel at
// W = 2^60 exactly.
func checkProbe(sumCost, sumDelay int64, lw shortest.LinWeight) error {
	hc, wc := bits.Mul64(uint64(lw.Q), uint64(sumCost))
	hd, wd := bits.Mul64(uint64(lw.P), uint64(sumDelay))
	if hc != 0 || hd != 0 || wc > probeLimit || wd > probeLimit || wc+wd > probeLimit {
		return fmt.Errorf("%w: phase-1 weighting %d·cost + %d·delay sums past 2^60 (Σcost %d, Σdelay %d)",
			ErrWeightsTooLarge, lw.Q, lw.P, sumCost, sumDelay)
	}
	return nil
}

// checkFindArithmetic returns an ErrWeightsTooLarge error unless the two
// exact-arithmetic inequalities bicameral.Find guards hold for every Find
// the cancellation loop can make. Find takes |Δ| = max(|ΔC|, |ΔD|); here
// it is replaced by max(Σcost+1, Σdelay), which bounds both: C_ref never
// exceeds Σcost+1 and the current cost is nonnegative, so 0 < ΔC ≤ Σcost+1;
// and the current flow's delay exceeds D ≥ 0 inside the loop, so
// |ΔD| ≤ Σdelay. Find's residual view carries the problem graph's weights
// up to sign, so its largest |weight| is the one computed here.
func checkFindArithmetic(g *graph.Digraph) error {
	n := g.NumNodes()
	maxW := max(int64(1), g.MaxCost(), g.MaxDelay())
	scale := max(g.SumCost()+1, g.SumDelay())
	if maxW > (int64(1)<<60)/int64(n+2) {
		return fmt.Errorf("%w: edge weights up to %d overflow the layered factor at n=%d", ErrWeightsTooLarge, maxW, n)
	}
	k := int64(n+1)*maxW + 1
	if scale > (int64(1)<<61)/(2*maxW)/k {
		return fmt.Errorf("%w: cycle search needs |Δ| ≤ %d at max edge weight %d and n=%d, but Σcost+1, Σdelay reach %d",
			ErrWeightsTooLarge, (int64(1)<<61)/(2*maxW)/k, maxW, n, scale)
	}
	return nil
}
