package rec

// This file is the flight recorder's event catalogue: every Kind the
// solver records, with its JSONL name and argument names. The krsplint
// `eventcat` analyzer closes the loop the compiler cannot: every Kind
// constant must appear in the catalogue exactly once, every Record call
// site must pass a declared constant, and no declared kind may rot unused.
// DESIGN.md §13 carries the prose version of this table.

// Schema is the version of the event schema and of the JSONL dump format.
// Bump it whenever a Kind is removed, renamed, or its argument meaning
// changes — offline tooling joins traces on (schema, kind name).
const Schema = 1

// Kind identifies one event type in the catalogue.
type Kind uint8

const (
	// KindSolveStart opens a solve: instance shape (n, m, k, bound).
	KindSolveStart Kind = iota
	// KindSolveEnd closes a solve: final cost, delay, cancellation
	// iterations, and outcome flags (FlagDegraded | FlagExact | ...).
	KindSolveEnd
	// KindPhaseStart marks entry into a pipeline phase (obs.Phase value).
	KindPhaseStart
	// KindPhaseEnd marks exit from a pipeline phase.
	KindPhaseEnd
	// KindLambdaIter is one phase-1 Lagrangian iteration: the multiplier
	// λ = p/q in force and the combined weight of the new interior flow.
	KindLambdaIter
	// KindDualityGap is the phase-1 convergence snapshot after an
	// iteration: feasible endpoint cost, best dual lower bound (floored to
	// an integer), and their gap — the quantity the krsptrace convergence
	// table plots.
	KindDualityGap
	// KindAugment is one successive-shortest-path augmentation round in
	// the min-cost-flow kernel: round index, the round's s→t reduced
	// distance μ, and the number of pops of its searches from s and from t
	// (round 1 searches from s only).
	KindAugment
	// KindCancelStep is one applied cycle cancellation: cycle edge count,
	// aggregate cost and delay of the applied candidate, bicameral type.
	KindCancelStep
	// KindCRefEscalate is a C_OPT stand-in escalation: old and new C_ref.
	KindCRefEscalate
	// KindSearchDone summarises one bicameral.Find call: found flag,
	// budget-ladder steps tried, candidates inspected, final budget.
	KindSearchDone
	// KindDegraded marks the decision to return a degraded (anytime)
	// answer: the phase in which the deadline fired.
	KindDegraded
	// KindRelaxedCap marks consumption of the relaxed-cap fallback
	// candidate (cost bound forfeited): candidate cost and delay.
	KindRelaxedCap
	// KindFallback marks returning the feasible phase-1 endpoint instead
	// of the cancelled solution (reason code: FallbackIterCap,
	// FallbackSearchExhausted, FallbackCheaper).
	KindFallback
	// KindResidualApply is one incremental residual update: cycles applied
	// and residual edges flipped.
	KindResidualApply
	// KindResidualRebuild is a full residual rebuild healing a failed (or
	// fault-injected) incremental update, at the given iteration.
	KindResidualRebuild
	// KindFaultHit is an armed fault-point trip observed at a solver seam
	// (fault.Point value).
	KindFaultHit
	// KindCacheHit is a solve answered from the fingerprint cache: the
	// entry's State (solvecache fresh=1/stale=2), its age in nanoseconds,
	// and memo: 1 when krspd's body memo supplied the fingerprint, 0 when
	// the request decoded its body.
	KindCacheHit
	// KindSingleflight is a solve collapsed onto an identical in-flight
	// solve's result instead of running its own.
	KindSingleflight
	// KindProxyAttempt is one attempt to proxy a solve to its owning peer:
	// attempt index (0-based), outcome code (ProxyOK, ...), and whether
	// the attempt was a hedge.
	KindProxyAttempt
	// KindDegradedRoute marks a solve computed locally because the owning
	// peer was unreachable: the attempts burned before giving up.
	KindDegradedRoute
	// KindCancelStart opens the cycle-cancellation loop: the cost and delay
	// of the bound-violating phase-1 endpoint it starts from, and the
	// initial C_ref. With the cref-escalate and cancel-step events that
	// follow, it rebuilds the cost, delay and C_ref before every step.
	KindCancelStart
	// NumKinds bounds the Kind enum.
	NumKinds
)

// Solve-end outcome flags (KindSolveEnd arg 3, bitwise OR).
const (
	FlagDegraded int64 = 1 << iota
	FlagExact
	FlagRelaxedCap
	FlagFellBack
)

// KindFallback reason codes (arg 0).
const (
	// FallbackIterCap: the cancellation iteration cap was hit.
	FallbackIterCap int64 = iota
	// FallbackSearchExhausted: no bicameral cycle existed under any cap.
	FallbackSearchExhausted
	// FallbackCheaper: the feasible endpoint beat the cancelled solution.
	FallbackCheaper
)

// KindProxyAttempt outcome codes (arg 1).
const (
	// ProxyOK: the peer answered 2xx.
	ProxyOK int64 = iota
	// ProxyDialFailed: the connection could not be established.
	ProxyDialFailed
	// ProxyReadFailed: the peer connection died mid-response.
	ProxyReadFailed
	// ProxyBadStatus: the peer answered a retryable 5xx.
	ProxyBadStatus
)

// KindInfo is one catalogue row: the event's wire name (kebab-case, stable
// across releases within a Schema) and the names of its used arguments
// ("" marks an unused slot).
type KindInfo struct {
	Name string
	Args [4]string
	Doc  string
}

// kinds is the catalogue table. Keyed by Kind so the eventcat analyzer can
// check one-entry-per-kind structurally.
var kinds = [NumKinds]KindInfo{
	KindSolveStart: {
		Name: "solve-start",
		Args: [4]string{"n", "m", "k", "bound"},
		Doc:  "solve entry: instance shape",
	},
	KindSolveEnd: {
		Name: "solve-end",
		Args: [4]string{"cost", "delay", "iterations", "flags"},
		Doc:  "solve exit: result totals and outcome flags",
	},
	KindPhaseStart: {
		Name: "phase-start",
		Args: [4]string{"phase", "", "", ""},
		Doc:  "pipeline phase entry",
	},
	KindPhaseEnd: {
		Name: "phase-end",
		Args: [4]string{"phase", "", "", ""},
		Doc:  "pipeline phase exit",
	},
	KindLambdaIter: {
		Name: "lambda-iter",
		Args: [4]string{"iter", "p", "q", "weight"},
		Doc:  "phase-1 Lagrangian iteration at λ = p/q",
	},
	KindDualityGap: {
		Name: "duality-gap",
		Args: [4]string{"iter", "feasibleCost", "dualFloor", "gap"},
		Doc:  "phase-1 convergence snapshot: c(Lo) vs best dual bound",
	},
	KindAugment: {
		Name: "augment",
		Args: [4]string{"round", "dist", "settled", ""},
		Doc:  "min-cost-flow augmentation round",
	},
	KindCancelStep: {
		Name: "cancel-step",
		Args: [4]string{"edges", "cost", "delay", "type"},
		Doc:  "applied cycle cancellation",
	},
	KindCRefEscalate: {
		Name: "cref-escalate",
		Args: [4]string{"old", "new", "", ""},
		Doc:  "C_OPT stand-in escalation",
	},
	KindSearchDone: {
		Name: "search-done",
		Args: [4]string{"found", "budgets", "candidates", "lastBudget"},
		Doc:  "bicameral search summary",
	},
	KindDegraded: {
		Name: "degraded",
		Args: [4]string{"phase", "", "", ""},
		Doc:  "deadline fired; returning the anytime answer",
	},
	KindRelaxedCap: {
		Name: "relaxed-cap",
		Args: [4]string{"cost", "delay", "", ""},
		Doc:  "relaxed-cap fallback candidate consumed",
	},
	KindFallback: {
		Name: "fallback",
		Args: [4]string{"reason", "", "", ""},
		Doc:  "returned the feasible phase-1 endpoint",
	},
	KindResidualApply: {
		Name: "residual-apply",
		Args: [4]string{"cycles", "flipped", "", ""},
		Doc:  "incremental residual update",
	},
	KindResidualRebuild: {
		Name: "residual-rebuild",
		Args: [4]string{"iteration", "", "", ""},
		Doc:  "full residual rebuild healing a failed update",
	},
	KindFaultHit: {
		Name: "fault-hit",
		Args: [4]string{"point", "", "", ""},
		Doc:  "armed fault-point trip at a solver seam",
	},
	KindCacheHit: {
		Name: "cache-hit",
		Args: [4]string{"state", "ageNs", "memo", ""},
		Doc:  "solve answered from the fingerprint cache",
	},
	KindSingleflight: {
		Name: "singleflight-collapse",
		Args: [4]string{"", "", "", ""},
		Doc:  "solve collapsed onto an identical in-flight solve",
	},
	KindProxyAttempt: {
		Name: "proxy-attempt",
		Args: [4]string{"attempt", "outcome", "hedge", ""},
		Doc:  "one proxy attempt toward the owning peer",
	},
	KindDegradedRoute: {
		Name: "degraded-route",
		Args: [4]string{"attempts", "", "", ""},
		Doc:  "owner unreachable; solved locally off-route",
	},
	KindCancelStart: {
		Name: "cancel-start",
		Args: [4]string{"cost", "delay", "cref", ""},
		Doc:  "cycle-cancellation loop entry: starting totals and C_ref",
	},
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if k >= NumKinds {
		return "unknown"
	}
	return kinds[k].Name
}

// Info returns the catalogue row for k (zero value for out-of-range).
func (k Kind) Info() KindInfo {
	if k >= NumKinds {
		return KindInfo{Name: "unknown"}
	}
	return kinds[k]
}

// KindByName resolves a wire name back to its Kind; ok is false for
// unknown names (a newer or older schema).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if kinds[k].Name == name {
			return k, true
		}
	}
	return NumKinds, false
}

// Catalogue returns the full table in Kind order (for docs and tests).
func Catalogue() []KindInfo {
	out := make([]KindInfo, NumKinds)
	copy(out, kinds[:])
	return out
}
