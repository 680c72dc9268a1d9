package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// checkBrackets holds one solve's event stream to its bracket rules: phase
// starts and ends pair up and nest, and the stream is one solve-start
// followed, when the solve succeeded, by one solve-end as its last event.
func checkBrackets(evs []rec.Event, ok bool) error {
	var open []int64
	starts, ends := 0, 0
	for i, ev := range evs {
		switch ev.Kind {
		case rec.KindSolveStart:
			starts++
		case rec.KindSolveEnd:
			ends++
			if i != len(evs)-1 {
				return fmt.Errorf("solve-end at event %d of %d", i, len(evs))
			}
		case rec.KindPhaseStart:
			open = append(open, ev.Args[0])
		case rec.KindPhaseEnd:
			if len(open) == 0 || open[len(open)-1] != ev.Args[0] {
				return fmt.Errorf("phase-end %v at event %d closes open phases %v", obs.Phase(ev.Args[0]), i, open)
			}
			open = open[:len(open)-1]
		}
	}
	if len(open) != 0 {
		return fmt.Errorf("phases %v never end", open)
	}
	wantEnds := 0
	if ok {
		wantEnds = 1
	}
	if starts != 1 || ends != wantEnds || evs[0].Kind != rec.KindSolveStart {
		return fmt.Errorf("%d solve-start and %d solve-end events (first %s), want 1 and %d", starts, ends, evs[0].Kind, wantEnds)
	}
	return nil
}

// TestChaosSoak hammers SolveCtx with seeded random fault injection and
// cancellation trips across ≥ 500 solves, asserting the robustness
// contract: every outcome is either a feasible solution (delay bound
// respected, paths valid — degraded or not) or a clean typed error. No
// panic ever escapes, no delay bound is ever violated, no solve hangs.
// Deterministic: every random draw comes from seeded sources, and
// cancellation fires via fault.PointCancel trips rather than wall-clock
// deadlines. A flight recorder, reset every round, holds each solve's
// event stream to checkBrackets under faults and degradation too.
// Skipped under -short.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	const rounds = 650 // ≥ 500 actual solves after infeasible-bound skips
	r := rand.New(rand.NewSource(20260805))
	reg := obs.New(&obs.ManualClock{})
	fr := rec.New(nil, 1<<16)
	solves, degraded, rebuilt := 0, 0, 0
	for i := 0; i < rounds; i++ {
		n := 10 + r.Intn(16)
		ins := gen.ER(int64(i), n, 0.25, gen.DefaultWeights())
		ins.K = 1 + r.Intn(3)
		bounded, ok := gen.WithBound(ins, 1.05+r.Float64())
		if !ok {
			continue
		}
		faults := fault.New(int64(i)*31 + 7)
		if r.Float64() < 0.6 {
			faults.Arm(fault.PointResidualUpdate, r.Float64())
		}
		if r.Float64() < 0.5 {
			faults.Arm(fault.PointCycleSearch, r.Float64()*0.8)
		}
		if r.Float64() < 0.4 {
			faults.Arm(fault.PointCancel, r.Float64()*0.6)
		}
		// This draw once chose a search worker count; keeping it keeps every
		// later round's instance, faults and poll stride.
		_ = r.Intn(4)
		opt := core.Options{
			Faults:    faults,
			Metrics:   reg,
			Recorder:  fr,
			PollEvery: 1 << uint(r.Intn(11)), // strides 1..1024
		}
		// The LP engine is exercised on the smallest instances only (it is
		// exponential-ish in practice) to reach the PointLPRound site.
		if n <= 12 && ins.K == 1 && r.Float64() < 0.1 {
			opt.Engine = bicameral.EngineLP
			faults.Arm(fault.PointLPRound, r.Float64())
		}
		fr.Reset()
		ctx, stop := context.WithCancel(context.Background())
		res, err := core.SolveCtx(ctx, bounded, opt)
		stop()
		solves++
		if fr.Dropped() != 0 {
			t.Fatalf("round %d (%s): the ring dropped %d events", i, bounded.Name, fr.Dropped())
		}
		if berr := checkBrackets(fr.Events(), err == nil); berr != nil {
			t.Fatalf("round %d (%s, err %v): %v", i, bounded.Name, err, berr)
		}
		if err != nil {
			// The instance is feasible by construction, so the only clean
			// failure modes are the typed ones.
			if !errors.Is(err, core.ErrNoProgress) &&
				!errors.Is(err, core.ErrNoKPaths) &&
				!errors.Is(err, core.ErrDelayInfeasible) {
				t.Fatalf("round %d (%s): unclean error: %v", i, bounded.Name, err)
			}
			continue
		}
		if res.Delay > bounded.Bound {
			t.Fatalf("round %d (%s): delay %d > bound %d (degraded=%v)",
				i, bounded.Name, res.Delay, bounded.Bound, res.Stats.Degraded)
		}
		if verr := res.Solution.Validate(bounded); verr != nil {
			t.Fatalf("round %d (%s): invalid solution: %v", i, bounded.Name, verr)
		}
		if res.LowerBound < 1 {
			t.Fatalf("round %d (%s): missing certificate", i, bounded.Name)
		}
		if res.Stats.Degraded {
			degraded++
		}
		rebuilt += res.Stats.ResidualRebuilds
	}
	if solves < 500 {
		t.Fatalf("only %d/%d rounds produced feasible instances; need ≥ 500", solves, rounds)
	}
	// The soak must actually exercise the chaos paths, not dodge them.
	if degraded == 0 {
		t.Fatal("no solve ever degraded: cancel trips never landed")
	}
	if rebuilt == 0 {
		t.Fatal("no residual rebuild ever happened: injection never landed")
	}
	if got := reg.SolverMetrics().Degraded.Value(); got != int64(degraded) {
		t.Fatalf("degraded counter %d != observed %d", got, degraded)
	}
}
