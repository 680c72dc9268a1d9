// Command krspbench runs the hot-path benchmark suite via testing.Benchmark
// and writes a machine-readable JSON report (BENCH_1.json by default): one
// record per benchmark with ns/op, allocs/op and B/op. CI and the README
// performance workflow diff these reports across commits.
//
// Usage:
//
//	krspbench                       # all benchmarks → BENCH_1.json
//	krspbench -out report.json      # custom output path
//	krspbench -run Solve,Residual   # substring-filtered subset
//	krspbench -guard BENCH_1.json   # fail if allocs/op regress above the
//	                                # baseline (no report written unless
//	                                # -out is given explicitly)
//	krspbench -baseline BENCH_1.json# per-benchmark delta table (ns/op, B/op,
//	                                # allocs/op vs the baseline), failing on
//	                                # any allocs/op regression
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/residual"
	"repro/internal/shortest"
	"repro/internal/solvecache"
)

// record is one benchmark result in the JSON report.
type record struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_1.json schema.
type report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []record `json:"benchmarks"`
}

type bench struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "krspbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("krspbench", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_1.json", "output JSON path (- for stdout)")
	filter := fs.String("run", "", "comma-separated substrings; empty = all")
	guardPath := fs.String("guard", "", "baseline JSON: fail on allocs/op regression instead of writing a report")
	basePath := fs.String("baseline", "", "baseline JSON: print a per-benchmark delta table and fail on allocs/op regression")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	var wanted []string
	if *filter != "" {
		wanted = strings.Split(*filter, ",")
	}
	rep := report{
		Schema:     "krspbench/1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range suite() {
		if !matches(bm.name, wanted) {
			continue
		}
		// testing.Benchmark applies the standard ~1s auto-scaling.
		res := testing.Benchmark(bm.fn)
		if res.N == 0 {
			fmt.Fprintf(out, "%-28s skipped\n", bm.name)
			continue
		}
		rec := record{
			Name:        bm.name,
			Iters:       res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
		fmt.Fprintf(out, "%-28s %12.0f ns/op %10d allocs/op %12d B/op\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	}
	if *basePath != "" {
		if err := diffBaseline(out, *basePath, rep.Benchmarks); err != nil {
			return err
		}
		if !outSet {
			return nil // baseline mode: don't clobber the baseline
		}
	}
	if *guardPath != "" {
		if err := guard(out, *guardPath, rep.Benchmarks); err != nil {
			return err
		}
		if !outSet {
			return nil // guard mode: don't clobber the baseline
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		_, err = out.Write(data)
		return err
	}
	return os.WriteFile(*outPath, data, 0o644)
}

// guard compares allocs/op for every benchmark present in both the current
// run and the baseline report, and fails on any regression. allocs/op is
// the guarded quantity (it is deterministic, unlike ns/op): the zero-alloc
// observability contract says core.Solve with Options.Metrics unset must
// not allocate more than the pre-instrumentation baseline.
func guard(out io.Writer, path string, current []record) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]int64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r.AllocsPerOp
	}
	compared := 0
	var regressed []string
	for _, r := range current {
		want, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "guard: %-22s no baseline, skipped\n", r.Name)
			continue
		}
		compared++
		if r.AllocsPerOp > want {
			regressed = append(regressed,
				fmt.Sprintf("%s: %d allocs/op > baseline %d", r.Name, r.AllocsPerOp, want))
		} else {
			fmt.Fprintf(out, "guard: %-22s %d allocs/op ≤ baseline %d\n", r.Name, r.AllocsPerOp, want)
		}
	}
	if compared == 0 {
		return fmt.Errorf("guard: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("alloc regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

// diffBaseline prints a per-benchmark delta table against a previous report
// and, like guard, fails on any allocs/op regression. ns/op and B/op deltas
// are informational (they are machine- and load-dependent); allocs/op is the
// deterministic, guarded column.
func diffBaseline(out io.Writer, path string, current []record) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	pct := func(cur, old float64) string {
		if old == 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+6.1f%%", (cur-old)/old*100)
	}
	fmt.Fprintf(out, "\ndelta vs %s\n", path)
	fmt.Fprintf(out, "%-24s %14s %9s %12s %9s %12s %6s\n",
		"benchmark", "ns/op", "Δ", "B/op", "Δ", "allocs/op", "Δ")
	compared := 0
	var regressed []string
	for _, r := range current {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %6s  (new)\n",
				r.Name, r.NsPerOp, "", r.BytesPerOp, "", r.AllocsPerOp, "")
			continue
		}
		compared++
		fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %+6d\n",
			r.Name, r.NsPerOp, pct(r.NsPerOp, b.NsPerOp),
			r.BytesPerOp, pct(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			r.AllocsPerOp, r.AllocsPerOp-b.AllocsPerOp)
		if r.AllocsPerOp > b.AllocsPerOp {
			regressed = append(regressed,
				fmt.Sprintf("%s: %d allocs/op > baseline %d", r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("alloc regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

func matches(name string, wanted []string) bool {
	if len(wanted) == 0 {
		return true
	}
	for _, w := range wanted {
		if strings.Contains(strings.ToLower(name), strings.ToLower(strings.TrimSpace(w))) {
			return true
		}
	}
	return false
}

func benchInstance(n, k int, slack float64) graph.Instance {
	ins := gen.ER(42, n, 0.2, gen.DefaultWeights())
	ins.K = k
	bounded, ok := gen.WithBound(ins, slack)
	if !ok {
		panic("krspbench: benchmark instance infeasible")
	}
	return bounded
}

// largeInstance mirrors the repo-level bench_large_test.go helper: a
// layered-grid instance with ≈ n vertices, Θ(n) edges, and a delay bound in
// the Lagrangian-hard band (min-delay feasible, min-cost infeasible), built
// without gen.WithBound's Θ(width)-augmentation feasibility certificate.
func largeInstance(n, k int) graph.Instance {
	width := 100
	for width*width < 2*n {
		width += 50
	}
	layers := (n + width - 1) / width
	ins := gen.LayeredGrid(42, layers, width, gen.DefaultWeights())
	ins.K = k
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, k, shortest.DelayWeight)
	if err != nil {
		panic("krspbench: large instance infeasible: " + err.Error())
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	return ins
}

func phase1Row(n, k int, scaled bool) func(b *testing.B) {
	return func(b *testing.B) {
		ins := largeInstance(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if scaled {
				_, err = core.Phase1Scaled(ins, core.DefaultPhase1Eps)
			} else {
				_, err = core.Phase1(ins)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// suite mirrors the hot-path subset of the repo-level bench_test.go — the
// benchmarks whose regressions the performance workflow tracks.
func suite() []bench {
	return []bench{
		{"SolveN20K2", func(b *testing.B) {
			ins := benchInstance(20, 2, 1.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3", func(b *testing.B) {
			ins := benchInstance(60, 3, 1.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveCtxN60K3", func(b *testing.B) {
			// Cancellable-context twin of SolveN60K3: a live Canceller is
			// threaded through every kernel, so this proves the deadline
			// machinery (pool-backed Canceller, strided polling) costs zero
			// additional allocations on the hot path.
			ins := benchInstance(60, 3, 1.3)
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveCtx(ctx, ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3CacheMiss", func(b *testing.B) {
			// Cache-layer twin: the full krspd miss path (fingerprint,
			// lookup, solve, insert, evict) per iteration. The guarded
			// baseline pins allocs/op equal to SolveN60K3: fingerprinting
			// is allocation-free and the cache freelist recycles entries.
			ins := benchInstance(60, 3, 1.3)
			cache := solvecache.NewCache[core.Result](8, int64(time.Hour))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp := solvecache.Fingerprint(ins, "solve", 0)
				if _, st := cache.Get(fp, int64(i)); st != solvecache.Miss {
					b.Fatal("unexpected cache hit")
				}
				res, err := core.Solve(ins, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cache.Put(fp, res, int64(i))
				cache.Remove(fp)
			}
		}},
		{"SolveN60K3Metrics", func(b *testing.B) {
			// Same workload with a live registry: the price of recording.
			// Not in the guarded baseline; tracked for visibility.
			ins := benchInstance(60, 3, 1.3)
			reg := obs.New(obs.RealClock{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{Metrics: reg}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3Recorder", func(b *testing.B) {
			// Flight-recorded twin: a live ring recorder is threaded through
			// every kernel. Not in the guarded baseline; tracked so the cost
			// of event recording stays visible next to the Metrics twin.
			ins := benchInstance(60, 3, 1.3)
			r := rec.New(obs.RealClock{}, rec.DefaultCapacity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{Recorder: r}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveIncremental", func(b *testing.B) {
			ins := benchInstance(40, 3, 1.15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BicameralFind", func(b *testing.B) {
			rg, p, ok := bicameralInputs()
			if !ok {
				b.Skip("min-cost flow already feasible")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bicameral.Find(rg, p, bicameral.Options{})
			}
		}},
		{"BicameralParallel", func(b *testing.B) {
			rg, p, ok := bicameralInputs()
			if !ok {
				b.Skip("min-cost flow already feasible")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bicameral.Find(rg, p, bicameral.Options{Workers: 4})
			}
		}},
		{"ResidualBuild", func(b *testing.B) {
			ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
			f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.CostWeight)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				residual.Build(ins.G, f1.Edges)
			}
		}},
		{"ResidualUpdate", func(b *testing.B) {
			// One incremental Update against the Build it replaces, on a
			// realistic solution-swap cycle set (flipped there and back).
			rg, fwd, back := residualSwap()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				if err := rg.Update(fwd); err != nil {
					b.Fatal(err)
				}
				if err := rg.Update(back); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SPFAAllCSR", func(b *testing.B) {
			c := graph.NewCSR(gen.ER(3, 200, 0.08, gen.DefaultWeights()).G)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shortest.SPFAAllCSRInto(shortest.NewWorkspace(c.NumNodes()), c, shortest.LinCost, nil)
			}
		}},
		{"SPFAAllCSRInto", func(b *testing.B) {
			c := graph.NewCSR(gen.ER(3, 200, 0.08, gen.DefaultWeights()).G)
			ws := shortest.NewWorkspace(c.NumNodes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shortest.SPFAAllCSRInto(ws, c, shortest.LinCost, nil)
			}
		}},
		// Large tier: classic vs scaled phase-1 kernel on the same instance.
		// The scaled/classic ns/op ratio at each size is the headline claim
		// of the CSR + scaled-kernel work (≥2× at N ≥ 5k, allocs/op flat).
		{"Phase1ClassicN5k", phase1Row(5_000, 3, false)},
		{"Phase1ScaledN5k", phase1Row(5_000, 3, true)},
		{"Phase1ClassicN20k", phase1Row(20_000, 3, false)},
		{"Phase1ScaledN20k", phase1Row(20_000, 3, true)},
		{"Phase1ClassicN50k", phase1Row(50_000, 3, false)},
		{"Phase1ScaledN50k", phase1Row(50_000, 3, true)},
	}
}

func bicameralInputs() (*residual.Graph, bicameral.Params, bool) {
	ins := benchInstance(30, 2, 1.2)
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.CostWeight)
	if err != nil {
		panic(err)
	}
	rg := residual.Build(ins.G, f.Edges)
	dd := ins.Bound - f.Delay(ins.G)
	if dd >= 0 {
		return nil, bicameral.Params{}, false
	}
	return rg, bicameral.Params{DeltaD: dd, DeltaC: 10, CostCap: 1 << 20}, true
}

// residualSwap returns a residual built against the min-cost 2-flow of an
// N=100 ER instance, Updated once to the min-delay 2-flow and back, with the
// two cycle sets that swap between them.
func residualSwap() (*residual.Graph, []graph.Cycle, []graph.Cycle) {
	ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
	f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.CostWeight)
	if err != nil {
		panic(err)
	}
	f2, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.DelayWeight)
	if err != nil {
		panic(err)
	}
	rg := residual.Build(ins.G, f1.Edges)
	fwd, err := rg.SolutionCycles(f2.Edges)
	if err != nil {
		panic(err)
	}
	if err := rg.Update(fwd); err != nil {
		panic(err)
	}
	back, err := rg.SolutionCycles(f1.Edges)
	if err != nil {
		panic(err)
	}
	if err := rg.Update(back); err != nil {
		panic(err)
	}
	return rg, fwd, back
}
