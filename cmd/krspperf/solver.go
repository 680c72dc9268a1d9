package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// minSolves is the fewest solves a run measures however long they take:
// enough for a p90 with minBeyond samples beyond it.
const minSolves = 10 * minBeyond

// solverBlocks is how many time blocks a solver run's throughput is the
// median of.
const solverBlocks = 5

// warmSeed seeds the warm-up inputs. It is fixed, not the run's seed, so
// every run's setup does the same warm-up work and setup_s varies only with
// the timed inputs' generation and the machine.
const warmSeed = 0

// solverSetup generates the first w.pool timed inputs and solves w.warm
// separate warm-up inputs, so that the heap and the code are warm before
// the clock starts.
func solverSetup(w workload, seed int64, opts core.Options) ([]graph.Instance, error) {
	for j := 1; j <= w.warm; j++ {
		ins, err := instance(warmSeed, w, -j)
		if err != nil {
			return nil, err
		}
		if _, err := core.Solve(ins, opts); err != nil {
			return nil, fmt.Errorf("warm-up solve %d: %w", j, err)
		}
	}
	pool := make([]graph.Instance, w.pool)
	for i := range pool {
		var err error
		if pool[i], err = instance(seed, w, i); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// timedSolve runs one solve, returning its wall time and the bytes it
// allocated.
func timedSolve(ins graph.Instance, opts core.Options) (core.Result, time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Solve(ins, opts)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return res, d, after.TotalAlloc - before.TotalAlloc, err
}

// solverAnswer is a core result in the certificate's terms.
func solverAnswer(res core.Result, phase1 bool) answer {
	a := answer{cost: res.Cost, delay: res.Delay, lb: res.LowerBound, phase1: phase1, degraded: res.Stats.Degraded}
	for _, p := range res.Solution.Paths {
		a.paths = append(a.paths, p.Edges)
	}
	return a
}

// runSolver runs a solver workload: one caller solving fresh inputs back to
// back for the run's seconds (and at least minSolves of them). Inputs past
// the setup pool are generated as the run goes, off the clock.
func runSolver(w workload, rc runConfig) (map[string]float64, outcome, error) {
	var o outcome
	opts := core.Options{Phase1Only: w.phase1Only}
	var setups []float64
	var pool []graph.Instance
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		p, err := solverSetup(w, rc.seed, opts)
		if err != nil {
			return nil, o, err
		}
		setups = append(setups, time.Since(start).Seconds())
		pool = p
	}
	input := func(i int) (graph.Instance, error) {
		if i < len(pool) {
			return pool[i], nil
		}
		return instance(rc.seed, w, i)
	}
	m := map[string]float64{"setup_s": median(setups)}
	if rc.trace {
		err := traceSolver(w, rc, opts, input, m, &o)
		return m, o, err
	}

	var ops []timedOp
	var lat []float64
	var allocated uint64
	var q answerStats
	rss := sampleRSS([]int{os.Getpid()})
	start := time.Now()
	for i := 0; time.Since(start) < rc.seconds || i < minSolves; i++ {
		ins, err := input(i)
		if err != nil {
			rss.finish()
			return nil, o, err
		}
		o.attempted++
		op := timedOp{at: time.Since(start)}
		res, d, alloc, err := timedSolve(ins, opts)
		op.took = d
		allocated += alloc
		if err != nil {
			o.fail("input %d: %v", i, err)
		} else {
			op.ok = q.check(&o, ins, solverAnswer(res, w.phase1Only), fmt.Sprintf("input %d", i))
		}
		ops = append(ops, op)
		lat = append(lat, op.latency())
	}
	span := time.Since(start)
	m["rss_mb"] = rss.finish()
	m["latency_ms.p50"], _ = percentile(lat, 0.5)
	m["latency_ms.p90"], _ = percentile(lat, 0.9)
	m["throughput_per_s"] = medianRate(ops, solverBlocks, span, true)
	m["alloc_mb_per_op"] = float64(allocated) / float64(o.attempted) / 1e6
	m["cost_over_lb"] = q.costOverLB()
	return m, o, nil
}

// traceSolver is the traced run of a solver workload. It solves each input
// twice, with and without the recorder and a registry attached (alternating
// which goes first), for the tracing overhead, and takes the layer split
// from the traced solve.
func traceSolver(w workload, rc runConfig, opts core.Options, input func(int) (graph.Instance, error), m map[string]float64, o *outcome) error {
	traced := opts
	recorder := rec.New(obs.RealClock{}, 1<<16)
	reg := obs.New(obs.RealClock{})
	traced.Recorder, traced.Metrics = recorder, reg
	var layers layerTotals
	var q answerStats
	var plainWall, tracedWall time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < rc.seconds; i++ {
		ins, err := input(i)
		if err != nil {
			return err
		}
		o.attempted++
		var res core.Result
		for pass := 0; pass < 2 && err == nil; pass++ {
			var d time.Duration
			if (pass+i)%2 == 0 {
				_, d, _, err = timedSolve(ins, opts)
				plainWall += d
				continue
			}
			recorder.Reset()
			res, d, _, err = timedSolve(ins, traced)
			tracedWall += d
			if err == nil {
				layers.dropped += recorder.Dropped()
				if lerr := layers.add(recorder.Events(), d); lerr != nil {
					o.invalid("input %d: %v", i, lerr)
				}
			}
		}
		if err != nil {
			o.fail("input %d: %v", i, err)
			continue
		}
		q.check(o, ins, solverAnswer(res, w.phase1Only), fmt.Sprintf("input %d", i))
	}
	s, err := registryScrape(reg)
	if err != nil {
		return err
	}
	solverLayerMetrics(m, layers, s, 1)
	serverMetrics(m, s, layers.solves)
	if plainWall > 0 {
		m["trace.overhead_frac"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	}
	m["cert.over_2lb"] = float64(q.over2LB)
	if layers.dropped > 0 {
		o.invalid("the recorder dropped %d events", layers.dropped)
	}
	return nil
}
