package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs/rec"
)

// iterRecord is one cancellation as the flight recorder's stream describes
// it: the solution totals and the C_ref in force before the step, and the
// applied candidate.
type iterRecord struct {
	Cost, Delay, CRef                int64
	CycleCost, CycleDelay, CycleType int64
}

// iterRecords rebuilds one record per cancellation from a solve's event
// stream: cancel-start gives the loop's starting totals and C_ref,
// cref-escalate moves C_ref, and each cancel-step is one record, after
// which its candidate's cost and delay move the totals.
func iterRecords(evs []rec.Event) []iterRecord {
	var out []iterRecord
	var cost, delay, cref int64
	for _, ev := range evs {
		switch ev.Kind {
		case rec.KindCancelStart:
			cost, delay, cref = ev.Args[0], ev.Args[1], ev.Args[2]
		case rec.KindCRefEscalate:
			cref = ev.Args[1]
		case rec.KindCancelStep:
			out = append(out, iterRecord{cost, delay, cref, ev.Args[1], ev.Args[2], ev.Args[3]})
			cost += ev.Args[1]
			delay += ev.Args[2]
		}
	}
	return out
}

// TestLemma12Monotonicity verifies the paper's Lemma 12 empirically on
// every recorded cancellation: across iterations with a fixed C_ref, either
// r = ΔD/ΔC strictly increases, or it stays equal while ΔD strictly
// shrinks in magnitude. (C_ref escalations reset the frame, so only
// consecutive records sharing a CRef are compared.)
func TestLemma12Monotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstance(r, 5+r.Intn(5), 3, 10, 10, 1+r.Intn(2))
		feas, err := CheckFeasible(withBigBound(ins))
		if err != nil || feas.MaxDisjoint < ins.K {
			return true
		}
		ins.Bound = feas.MinDelay + r.Int63n(12)
		fr := rec.New(nil, 1<<12)
		res, err := Solve(ins, Options{Recorder: fr})
		if err != nil || fr.Dropped() != 0 {
			return false
		}
		recs := iterRecords(fr.Events())
		if len(recs) != res.Stats.Iterations {
			return false
		}
		for i := 1; i < len(recs); i++ {
			prev, cur := recs[i-1], recs[i]
			if prev.CRef != cur.CRef {
				continue // escalation resets the frame
			}
			// r_i = (D − delay_i) / (CRef − cost_i) as exact rationals.
			ri := big.NewRat(ins.Bound-prev.Delay, prev.CRef-prev.Cost)
			rj := big.NewRat(ins.Bound-cur.Delay, cur.CRef-cur.Cost)
			switch rj.Cmp(ri) {
			case 1: // strictly increased: clause 2
			case 0: // equal: clause 1 requires |ΔD| to shrink
				if !(ins.Bound-cur.Delay > ins.Bound-prev.Delay) {
					return false
				}
			default:
				return false // r decreased: Lemma 12 violated
			}
		}
		// Every recorded cycle must also satisfy W < 0 or the boundary
		// type-1 condition in its own frame.
		for _, rec := range recs {
			dd := ins.Bound - rec.Delay
			dc := rec.CRef - rec.Cost
			w := dc*rec.CycleDelay - dd*rec.CycleCost
			if w > 0 {
				return false
			}
			if w == 0 && rec.CycleDelay >= 0 {
				return false // boundary cycles must still reduce delay
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
