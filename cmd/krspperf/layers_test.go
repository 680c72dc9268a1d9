package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/rec"
)

func ev(t int64, k rec.Kind, args ...int64) rec.Event {
	e := rec.Event{T: t, Kind: k}
	copy(e.Args[:], args)
	return e
}

// A solve with two cancellations, the second after a C_ref escalation.
func TestLayerSplitFromEvents(t *testing.T) {
	p1, cancel, dec := int64(obs.PhasePhase1), int64(obs.PhaseCancel), int64(obs.PhaseDecompose)
	events := []rec.Event{
		ev(0, rec.KindSolveStart, 100, 300, 3, 50),
		ev(10, rec.KindPhaseStart, p1),
		ev(20, rec.KindLambdaIter, 1),
		ev(30, rec.KindAugment, 1),
		ev(110, rec.KindPhaseEnd, p1),
		ev(130, rec.KindPhaseStart, cancel),  // residual build: 20
		ev(430, rec.KindSearchDone, 1, 2, 3), // search: 300
		ev(440, rec.KindResidualApply, 1, 7), // update: 10
		ev(445, rec.KindCancelStep, 7),
		ev(450, rec.KindCRefEscalate, 10, 20),
		ev(750, rec.KindSearchDone, 0, 1, 1), // search: 300
		ev(751, rec.KindRelaxedCap, 5, 5),
		ev(755, rec.KindResidualApply, 1, 4), // update: 5
		ev(757, rec.KindCancelStep, 4),
		ev(760, rec.KindPhaseEnd, cancel), // cancel bracket: 630
		ev(765, rec.KindPhaseStart, dec),
		ev(785, rec.KindPhaseEnd, dec), // decompose: 20
		ev(790, rec.KindSolveEnd),
	}
	var lt layerTotals
	if err := lt.add(events, 800*time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	want := layerTotals{
		solves: 1, wall: 800,
		phase1: 100, residual: 35, search: 600, decompose: 20, cancelOther: 15,
		lambdaIters: 1, augments: 1, finds: 2, found: 1, budgets: 3, candidates: 4,
		iterations: 2, crefs: 1, relaxed: 1, flipped: 11,
	}
	if lt != want {
		t.Fatalf("split\n got %+v\nwant %+v", lt, want)
	}
	m := map[string]float64{}
	solverLayerMetrics(m, lt, scrape{"krsp_spfa_runs_total": 6}, 1)
	if m["trace.layer_coverage"] != 770.0/800 || m["search.share"] != 600.0/800 || m["shortest.spfa_runs"] != 6 {
		t.Errorf("coverage %v, search share %v, spfa runs %v", m["trace.layer_coverage"], m["search.share"], m["shortest.spfa_runs"])
	}
}

func TestLayerSplitRejectsTruncatedTrace(t *testing.T) {
	var lt layerTotals
	err := lt.add([]rec.Event{ev(5, rec.KindPhaseStart, int64(obs.PhasePhase1))}, time.Microsecond)
	if err == nil {
		t.Fatal("a trace without solve-start and solve-end was accepted")
	}
}

func TestParseScrapeDiff(t *testing.T) {
	before, err := parseScrape(strings.NewReader("# HELP x y\nkrsp_solves_total 3\nkrsp_solve_phase_duration_seconds_sum{phase=\"phase1\"} 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader("krsp_solves_total 7\nkrsp_solve_phase_duration_seconds_sum{phase=\"phase1\"} 1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	serverMetrics(m, after.minus(before), 4)
	if m["server.solves_per_req"] != 1 || m["server.phase1_ms"] != 250 {
		t.Errorf("server metrics %v", m)
	}
}
