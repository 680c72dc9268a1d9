// Repository-level benchmarks: one per experiment (E1–E13, regenerating the
// EXPERIMENTS.md tables in quick mode) plus micro-benchmarks of the kernels
// the algorithms are built from. Run with:
//
//	go test -bench=. -benchmem
//
// make bench runs these, bench_large_test.go's and cmd/krspd's benchmarks
// through cmd/krspbench and snapshots them into the next BENCH_<n>.json.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/residual"
	"repro/internal/rsp"
	"repro/internal/shortest"
	"repro/internal/solvecache"
)

// benchExperiment runs one registered experiment in quick mode per
// iteration; the tables themselves are produced by cmd/krspexp.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := exp.Lookup(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := exp.Config{Quick: true, Seeds: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_ApproxRatio(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2_Phase1(b *testing.B)           { benchExperiment(b, "E2") }
func BenchmarkE3_Figure1(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4_AuxGraph(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5_EpsilonSweep(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6_KSweep(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7_Topologies(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8_BicameralEngines(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9_Infeasible(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10_Tightness(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11_Scaling(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12_Batch(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13_Netsim(b *testing.B)          { benchExperiment(b, "E13") }

// --- kernel micro-benchmarks -------------------------------------------

func benchInstance(b *testing.B, n int, k int, slack float64) graph.Instance {
	b.Helper()
	ins := gen.ER(42, n, 0.2, gen.DefaultWeights())
	ins.K = k
	bounded, ok := gen.WithBound(ins, slack)
	if !ok {
		b.Fatal("benchmark instance infeasible")
	}
	return bounded
}

func BenchmarkSolveN20K2(b *testing.B) {
	ins := benchInstance(b, 20, 2, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveN60K3(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCtxN60K3 is the cancellable-context twin of SolveN60K3: a
// live Canceller is threaded through every kernel, so allocs/op must equal
// SolveN60K3's (the deadline machinery allocates nothing on the hot path).
func BenchmarkSolveCtxN60K3(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.3)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveCtx(ctx, ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveN60K3CacheMiss is the cache-layer twin of SolveN60K3: every
// iteration runs the full krspd miss path — fingerprint, cache lookup,
// solve, insert — then evicts, so the next iteration misses again and the
// freelist recycles the entry. allocs/op must equal SolveN60K3's: the
// fingerprint+cache layer is zero-alloc in steady state by contract
// (bench-guarded against BENCH_3.json).
func BenchmarkSolveN60K3CacheMiss(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.3)
	cache := solvecache.NewCache[core.Result](8, int64(time.Hour))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := solvecache.Fingerprint(ins, "solve", 0)
		if _, st, _ := cache.Get(fp, int64(i)); st != solvecache.Miss {
			b.Fatal("unexpected cache hit")
		}
		res, err := core.Solve(ins, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cache.Put(fp, res, int64(i))
		cache.Remove(fp)
	}
}

// BenchmarkSolveN60K3Metrics is the instrumented twin of SolveN60K3: same
// workload with a live obs registry attached. Comparing the two -benchmem
// lines shows the full cost of recording (allocs/op must match: the record
// path is zero-alloc by contract).
func BenchmarkSolveN60K3Metrics(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.3)
	reg := obs.New(obs.RealClock{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveN60K3Recorder is the flight-recorded twin of SolveN60K3:
// same workload with a live recorder attached. Comparing the two -benchmem
// lines shows the full cost of event recording; the nil-recorder default
// (SolveN60K3 itself) is what the bench-guard pins, since Record is
// zero-alloc by //krsp:noalloc contract either way.
func BenchmarkSolveN60K3Recorder(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.3)
	r := rec.New(obs.RealClock{}, rec.DefaultCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{Recorder: r}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveScaledN30(b *testing.B) {
	ins := benchInstance(b, 30, 2, 1.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveScaledCtx(context.Background(), ins, 0.25, 0.25, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhase1N60(b *testing.B) {
	ins := benchInstance(b, 60, 3, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Phase1(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostKFlowN100(b *testing.B) {
	ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinCost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxFlowN200(b *testing.B) {
	ins := gen.ER(7, 200, 0.05, gen.DefaultWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.MaxDisjointPaths(ins.G, ins.S, ins.T)
	}
}

func BenchmarkRSPExactDP(b *testing.B) {
	ins := benchInstance(b, 40, 1, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rsp.ExactDP(ins.G, ins.S, ins.T, ins.Bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBicameralFind(b *testing.B) {
	ins := benchInstance(b, 30, 2, 1.2)
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.LinCost)
	if err != nil {
		b.Fatal(err)
	}
	rg := residual.Build(ins.G, f.Edges)
	dd := ins.Bound - f.Delay(ins.G)
	if dd >= 0 {
		b.Skip("min-cost flow already feasible on this seed")
	}
	p := bicameral.Params{DeltaD: dd, DeltaC: 10, CostCap: 1 << 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bicameral.Find(rg, p, bicameral.Options{})
	}
}

func BenchmarkSPFAAllCSR(b *testing.B) {
	c := graph.NewCSR(gen.ER(3, 200, 0.08, gen.DefaultWeights()).G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shortest.SPFAAllCSRInto(shortest.NewWorkspace(c.NumNodes()), c, shortest.LinCost, nil)
	}
}

// BenchmarkSPFAAllCSRInto is the workspace-reusing counterpart of
// BenchmarkSPFAAllCSR: the delta between the two is precisely the
// per-search allocation cost the Workspace removes.
func BenchmarkSPFAAllCSRInto(b *testing.B) {
	c := graph.NewCSR(gen.ER(3, 200, 0.08, gen.DefaultWeights()).G)
	ws := shortest.NewWorkspace(c.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shortest.SPFAAllCSRInto(ws, c, shortest.LinCost, nil)
	}
}

// BenchmarkSolveIncremental isolates the cancellation loop's residual
// maintenance: a mid-size instance whose solve performs several
// cancellations, so the incremental rg.Update path (vs a per-iteration
// rebuild) dominates the measured delta.
func BenchmarkSolveIncremental(b *testing.B) {
	ins := benchInstance(b, 40, 3, 1.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidualUpdate measures one incremental Update against the full
// Build it replaces, on a realistic solution-swap cycle set.
func BenchmarkResidualUpdate(b *testing.B) {
	ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
	f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinCost)
	if err != nil {
		b.Fatal(err)
	}
	f2, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinDelay)
	if err != nil {
		b.Fatal(err)
	}
	rg := residual.Build(ins.G, f1.Edges)
	fwd, err := rg.SolutionCycles(f2.Edges)
	if err != nil {
		b.Fatal(err)
	}
	if err := rg.Update(fwd); err != nil {
		b.Fatal(err)
	}
	back, err := rg.SolutionCycles(f1.Edges)
	if err != nil {
		b.Fatal(err)
	}
	if err := rg.Update(back); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		if err := rg.Update(fwd); err != nil {
			b.Fatal(err)
		}
		if err := rg.Update(back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResidualBuild(b *testing.B) {
	ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
	f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinCost)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		residual.Build(ins.G, f1.Edges)
	}
}
