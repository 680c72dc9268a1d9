package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// layerTotals accumulates the per-layer split of traced solves, read from the
// boundary events core already records. Times are nanoseconds.
type layerTotals struct {
	solves int
	wall   int64 // solve wall time as the benchmark measured it
	// Self times: phase 1's bracket; residual building (phase-1 end to
	// cancel start) plus each update (search-done to residual-apply); the
	// search (the last loop boundary to each search-done); the decompose
	// bracket; the rest of the cancel bracket.
	phase1, residual, search, decompose, cancelOther int64

	lambdaIters, augments             int
	finds, found, budgets, candidates int
	iterations, crefs                 int
	fallbacks, relaxed                int
	flipped                           int64
	dropped                           uint64
}

// add folds one traced solve: its event stream and measured wall time.
func (t *layerTotals) add(events []rec.Event, wall time.Duration) error {
	var p1Start, p1End, cancelStart, decStart, boundary, lastSearch int64
	var phase1, residual, search, updates, decompose, cancel int64
	var sawStart, sawEnd, fellBack, relaxed bool
	for _, e := range events {
		switch e.Kind {
		case rec.KindSolveStart:
			sawStart = true
		case rec.KindSolveEnd:
			sawEnd = true
		case rec.KindPhaseStart:
			switch obs.Phase(e.Args[0]) {
			case obs.PhasePhase1:
				p1Start = e.T
			case obs.PhaseCancel:
				cancelStart, boundary = e.T, e.T
				residual += e.T - p1End
			case obs.PhaseDecompose:
				decStart = e.T
			}
		case rec.KindPhaseEnd:
			switch obs.Phase(e.Args[0]) {
			case obs.PhasePhase1:
				p1End = e.T
				phase1 += e.T - p1Start
			case obs.PhaseCancel:
				cancel += e.T - cancelStart
			case obs.PhaseDecompose:
				decompose += e.T - decStart
			}
		case rec.KindLambdaIter:
			t.lambdaIters++
		case rec.KindAugment:
			t.augments++
		case rec.KindSearchDone:
			search += e.T - boundary
			lastSearch = e.T
			t.finds++
			t.found += int(e.Args[0])
			t.budgets += int(e.Args[1])
			t.candidates += int(e.Args[2])
		case rec.KindResidualApply:
			updates += e.T - lastSearch
			t.flipped += e.Args[1]
		case rec.KindCancelStep:
			t.iterations++
			boundary = e.T
		case rec.KindCRefEscalate:
			t.crefs++
			boundary = e.T
		case rec.KindResidualRebuild:
			boundary = e.T
		case rec.KindFallback:
			fellBack = true
		case rec.KindRelaxedCap:
			relaxed = true
		}
	}
	if !sawStart || !sawEnd {
		return fmt.Errorf("trace of %d events lacks solve-start or solve-end", len(events))
	}
	t.phase1 += phase1
	t.residual += residual + updates
	t.search += search
	t.decompose += decompose
	t.cancelOther += cancel - search - updates
	t.solves++
	t.wall += wall.Nanoseconds()
	if fellBack {
		t.fallbacks++
	}
	if relaxed {
		t.relaxed++
	}
	return nil
}

// solverLayerMetrics turns traced-solve totals into per-operation layer
// metrics. perOp is the number of solves one operation of the workload runs:
// 1 for the solver workloads, the server's solves per request for krspd.
// reg is the registry the traced solves reported into, for the counts that
// only the registry has.
func solverLayerMetrics(m map[string]float64, t layerTotals, reg scrape, perOp float64) {
	if t.solves == 0 {
		return
	}
	n := float64(t.solves)
	each := func(v float64) float64 { return v / n * perOp }
	ms := func(ns int64) float64 { return each(float64(ns) / 1e6) }
	share := func(ns int64) float64 { return float64(ns) / float64(t.wall) }
	m["phase1.ms"] = ms(t.phase1)
	m["phase1.share"] = share(t.phase1)
	m["phase1.lambda_iters"] = each(float64(t.lambdaIters))
	m["flow.augmentations"] = each(float64(t.augments))
	m["flow.relaxations"] = each(reg["krsp_flow_relaxations_total"])
	m["search.ms"] = ms(t.search)
	m["search.share"] = share(t.search)
	m["search.finds"] = each(float64(t.finds))
	m["search.detect_rounds"] = each(reg["krsp_bicameral_searches_total"])
	m["search.candidates"] = each(float64(t.candidates))
	if t.finds > 0 {
		m["search.found_ratio"] = float64(t.found) / float64(t.finds)
	}
	m["search.budgets"] = each(float64(t.budgets))
	m["shortest.spfa_runs"] = each(reg["krsp_spfa_runs_total"])
	m["shortest.spfa_relaxations"] = each(reg["krsp_spfa_relaxations_total"])
	m["residual.ms"] = ms(t.residual)
	m["residual.flipped_edges"] = each(float64(t.flipped))
	m["cancel.iterations"] = each(float64(t.iterations))
	m["cancel.cref_escalations"] = each(float64(t.crefs))
	m["cancel.fallback_frac"] = float64(t.fallbacks) / n
	m["cancel.relaxed_frac"] = float64(t.relaxed) / n
	m["cancel.other_ms"] = ms(t.cancelOther)
	m["decompose.ms"] = ms(t.decompose)
	m["trace.dropped"] = float64(t.dropped)
	m["trace.layer_coverage"] = share(t.phase1 + t.residual + t.search + t.decompose + t.cancelOther)
}

// scrape is a Prometheus text exposition as a map from sample name (with its
// labels, exactly as exposed) to value.
type scrape map[string]float64

// parseScrape reads a Prometheus text exposition.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// registryScrape reads an in-process registry the way krspd's /metrics
// exposes it.
func registryScrape(reg *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseScrape(&buf)
}

// add sums o into s: the scrapes of several nodes make one cluster total.
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// minus returns s − o sample by sample: the work done between two scrapes.
func (s scrape) minus(o scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - o[k]
	}
	return out
}

// serverMetrics fills the server.* metrics from a registry diff covering ops
// operations.
func serverMetrics(m map[string]float64, d scrape, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	m["server.phase1_ms"] = d[`krsp_solve_phase_duration_seconds_sum{phase="phase1"}`] * 1e3 / n
	m["server.cancel_ms"] = d[`krsp_solve_phase_duration_seconds_sum{phase="cancel"}`] * 1e3 / n
	m["server.solves_per_req"] = d["krsp_solves_total"] / n
}
