package obs

// Phase identifies one stage of the solve pipeline for duration tracing.
// Each phase owns a duration histogram in the registry
// (krsp_solve_phase_duration_seconds{phase="..."}).
type Phase int

const (
	// PhasePhase1 covers the Lagrangian lower-bound search (core.Phase1).
	PhasePhase1 Phase = iota
	// PhaseCancel covers Algorithm 1's cycle-cancellation loop.
	PhaseCancel
	// PhaseDecompose covers flow decomposition into the k result paths.
	PhaseDecompose
	// PhaseScale covers Theorem 4's scaling wrapper around the core solve.
	PhaseScale
	// PhaseTotal covers a whole SolveCtx/SolveScaledCtx call end to end.
	PhaseTotal
	// NumPhases sizes per-phase arrays.
	NumPhases
)

// String returns the phase label used in metric exposition.
func (p Phase) String() string {
	switch p {
	case PhasePhase1:
		return "phase1"
	case PhaseCancel:
		return "cancel"
	case PhaseDecompose:
		return "decompose"
	case PhaseScale:
		return "scale"
	case PhaseTotal:
		return "total"
	default:
		return "unknown"
	}
}

// Span is an in-flight phase measurement. It is a small value type — no
// heap allocation — created by StartSpan and closed by End, which observes
// the elapsed clock time into the phase's duration histogram. The zero
// Span (and any Span from a nil Registry) is inert: End is a no-op.
type Span struct {
	r     *Registry
	phase Phase
	start int64
}

// StartSpan opens a span for phase p at the current clock reading.
// Nil-safe: a nil registry returns an inert span.
func (r *Registry) StartSpan(p Phase) Span {
	if r == nil || p < 0 || p >= NumPhases {
		return Span{}
	}
	return Span{r: r, phase: p, start: r.clock.Now()}
}

// End closes the span, observing the elapsed nanoseconds into the phase
// histogram. Calling End on an inert span does nothing.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.phase[s.phase].Observe(s.r.clock.Now() - s.start)
}

// PhaseHistogram returns the duration histogram for p (for tests and
// exposition checks). Nil-safe.
func (r *Registry) PhaseHistogram(p Phase) *Histogram {
	if r == nil || p < 0 || p >= NumPhases {
		return nil
	}
	return r.phase[p]
}
