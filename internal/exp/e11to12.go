package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// RunE11 measures how Solve's wall-clock time grows with instance size —
// the practical counterpart of the paper's pseudo-polynomial bound
// O(D·Σc·Σd·t_bc), which the fast-path engineering beats by orders of
// magnitude on non-adversarial inputs.
func RunE11(cfg Config) (*Table, error) {
	t := NewTable("E11: runtime scaling with instance size",
		"n", "~m", "inst", "mean time", "p95 time", "mean iters", "mean c/LB")
	sizes := []int{20, 40, 80}
	if !cfg.Quick {
		sizes = []int{20, 40, 80, 160, 320}
	}
	for _, n := range sizes {
		var times, iters, ratios []float64
		edges := 0
		count := 0
		for seed := int64(0); seed < int64(cfg.seeds()); seed++ {
			mk := func(s int64) graph.Instance {
				// Keep average degree fixed (~6) so m grows linearly.
				ins := gen.ER(s, n, 6.0/float64(n-1), gen.DefaultWeights())
				ins.K = 2
				return ins
			}
			ins, ok := boundedInstance(mk, seed+int64(n)*13, 1.3)
			if !ok {
				continue
			}
			var res core.Result
			dur, err := measure(func() error {
				var e error
				res, e = core.Solve(ins, core.Options{})
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("E11: n=%d: %w", n, err)
			}
			count++
			edges += ins.G.NumEdges()
			times = append(times, dur.Seconds())
			iters = append(iters, float64(res.Stats.Iterations))
			ratios = append(ratios, ratio(res.Cost, res.LowerBound))
		}
		if count == 0 {
			continue
		}
		t.Add(n, edges/count, count, fmtDurationSec(Mean(times)),
			fmtDurationSec(Percentile(times, 95)), Mean(iters), Mean(ratios))
	}
	t.Note("degree held at ~6 so edge count grows linearly with n")
	return t, nil
}

// RunE12 measures the parallel speedup of SolveBatchCtx — the SDN-controller
// workload of re-provisioning many tunnel pairs at once.
func RunE12(cfg Config) (*Table, error) {
	t := NewTable("E12: parallel batch speedup (SolveBatchCtx)",
		"workers", "batch", "wall time", "speedup", "all solved")
	n := 30
	batchSize := 4 * cfg.seeds()
	if cfg.Quick {
		n = 16
	}
	var instances []graph.Instance
	for seed := int64(0); len(instances) < batchSize && seed < int64(batchSize*8); seed++ {
		mk := func(s int64) graph.Instance {
			ins := gen.ER(s, n, 0.2, gen.DefaultWeights())
			ins.K = 2
			return ins
		}
		if ins, ok := boundedInstance(mk, seed+60000, 1.3); ok {
			instances = append(instances, ins)
		}
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("E12: no feasible instances generated")
	}
	maxWorkers := runtime.GOMAXPROCS(0)
	workerSet := []int{1, 2, 4}
	if maxWorkers >= 8 {
		workerSet = append(workerSet, 8)
	}
	var base float64
	for _, w := range workerSet {
		start := time.Now()
		items := core.SolveBatchCtx(context.Background(), instances, core.Options{}, w)
		wall := time.Since(start).Seconds()
		solved := 0
		for _, it := range items {
			if it.Err == nil {
				solved++
			}
		}
		if w == 1 {
			base = wall
		}
		speedup := 1.0
		if wall > 0 {
			speedup = base / wall
		}
		t.Add(w, len(instances), fmtDurationSec(wall),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d/%d", solved, len(instances)))
	}
	t.Note("speedup is relative to workers=1 on the same batch; GOMAXPROCS=%d on this host", maxWorkers)
	return t, nil
}
