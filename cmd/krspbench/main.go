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
//	                                # baseline or B/op more than 5% above
//	                                # it (no report written unless -out is
//	                                # given explicitly)
//	krspbench -baseline BENCH_1.json# per-benchmark delta table (ns/op, B/op,
//	                                # allocs/op vs the baseline), failing on
//	                                # the same regressions as -guard
//
// Under -run, a selected row the -guard or -baseline report lacks is an
// error too, so a renamed or newly listed guard row cannot pass unchecked.
package main

import (
	"bytes"
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
	guardPath := fs.String("guard", "", "baseline JSON: fail on an allocs/op or B/op regression instead of writing a report")
	basePath := fs.String("baseline", "", "baseline JSON: print a per-benchmark delta table and fail on an allocs/op or B/op regression")
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
	// Rows picked by -run were asked for by name: each must have a baseline.
	strict := len(wanted) > 0
	if *basePath != "" {
		if err := diffBaseline(out, *basePath, rep.Benchmarks, strict); err != nil {
			return err
		}
		if !outSet {
			return nil // baseline mode: don't clobber the baseline
		}
	}
	if *guardPath != "" {
		if err := guard(out, *guardPath, rep.Benchmarks, strict); err != nil {
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

// bytesTolerancePct is how far, in percent, a row's B/op may rise above its
// baseline before the guard fails it. B/op is near-deterministic: over two
// consecutive full krspbench runs on one 2-CPU machine every row's B/op
// agreed within 13 bytes (0.003%), so 5% leaves room for runtime noise
// while still catching a real growth. allocs/op alone is not enough: 1,636
// allocs/op once hid 2.27 GB/op.
const bytesTolerancePct = 5

// regressions lists how r regressed against its baseline row b: any rise
// in allocs/op, or a B/op rise of more than bytesTolerancePct.
func regressions(r, b record) []string {
	var out []string
	if r.AllocsPerOp > b.AllocsPerOp {
		out = append(out, fmt.Sprintf("%s: %d allocs/op > baseline %d", r.Name, r.AllocsPerOp, b.AllocsPerOp))
	}
	if r.BytesPerOp*100 > b.BytesPerOp*(100+bytesTolerancePct) {
		out = append(out, fmt.Sprintf("%s: %d B/op > baseline %d + %d%%", r.Name, r.BytesPerOp, b.BytesPerOp, bytesTolerancePct))
	}
	return out
}

// readBaseline loads a report's rows by name.
func readBaseline(path string) (map[string]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	return baseline, nil
}

// unbaselined fails a strict run (one filtered by -run) that measured rows
// the baseline lacks; a full-suite run only reports them.
func unbaselined(path string, names []string, strict bool) error {
	if !strict || len(names) == 0 {
		return nil
	}
	return fmt.Errorf("rows selected by -run have no baseline in %s: %s", path, strings.Join(names, ", "))
}

// guard compares every benchmark present in both the current run and the
// baseline report, and fails on any regression (see regressions), or, when
// strict, on a row the baseline lacks. allocs/op and B/op are the guarded
// quantities because they are deterministic, or nearly so, unlike ns/op:
// the zero-alloc observability contract says core.Solve with
// Options.Metrics unset must not allocate more than the pre-instrumentation
// baseline, in count or in bytes.
func guard(out io.Writer, path string, current []record, strict bool) error {
	baseline, err := readBaseline(path)
	if err != nil {
		return err
	}
	compared := 0
	var regressed, missing []string
	for _, r := range current {
		b, ok := baseline[r.Name]
		if !ok {
			missing = append(missing, r.Name)
			if !strict {
				fmt.Fprintf(out, "guard: %-22s no baseline, skipped\n", r.Name)
			}
			continue
		}
		compared++
		if reg := regressions(r, b); len(reg) > 0 {
			regressed = append(regressed, reg...)
		} else {
			fmt.Fprintf(out, "guard: %-22s %d allocs/op ≤ baseline %d, %d B/op within %d%% of baseline %d\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, r.BytesPerOp, bytesTolerancePct, b.BytesPerOp)
		}
	}
	if err := unbaselined(path, missing, strict); err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	if compared == 0 {
		return fmt.Errorf("guard: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

// diffBaseline prints a per-benchmark delta table against a previous report
// and, like guard, fails on any allocs/op or B/op regression and, when
// strict, on a row the baseline lacks. ns/op deltas are informational (they
// are machine- and load-dependent).
func diffBaseline(out io.Writer, path string, current []record, strict bool) error {
	baseline, err := readBaseline(path)
	if err != nil {
		return err
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
	var regressed, missing []string
	for _, r := range current {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %6s  (new)\n",
				r.Name, r.NsPerOp, "", r.BytesPerOp, "", r.AllocsPerOp, "")
			missing = append(missing, r.Name)
			continue
		}
		compared++
		fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %+6d\n",
			r.Name, r.NsPerOp, pct(r.NsPerOp, b.NsPerOp),
			r.BytesPerOp, pct(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			r.AllocsPerOp, r.AllocsPerOp-b.AllocsPerOp)
		regressed = append(regressed, regressions(r, b)...)
	}
	if err := unbaselined(path, missing, strict); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if compared == 0 {
		return fmt.Errorf("baseline: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
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
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, k, shortest.LinDelay)
	if err != nil {
		panic("krspbench: large instance infeasible: " + err.Error())
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	return ins
}

func phase1Row(n, k int) func(b *testing.B) {
	return func(b *testing.B) {
		ins := largeInstance(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Phase1(ins); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func solveLargeRow(n, k int) func(b *testing.B) {
	return func(b *testing.B) {
		ins := largeInstance(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ins, core.Options{}); err != nil {
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
		{"ResidualBuild", func(b *testing.B) {
			ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
			f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinCost)
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
		{"DecodeN5k", func(b *testing.B) {
			// krspd's decode layer on an N=5k body: ReadInstance plus
			// Validate, the work a cache hit does before it fingerprints.
			// The guarded allocs/op stays constant in the body size.
			var body bytes.Buffer
			if err := graph.WriteInstance(&body, largeInstance(5_000, 3)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins, err := graph.ReadInstance(bytes.NewReader(body.Bytes()))
				if err == nil {
					err = ins.Validate()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Large tier: phase 1 alone and the full solve at N = 5k, 20k and
		// 50k (the Phase1Classic names line up with the older snapshots'
		// rows; the SolveLarge rows are the twins of BenchmarkSolveLarge*).
		{"Phase1ClassicN5k", phase1Row(5_000, 3)},
		{"Phase1ClassicN20k", phase1Row(20_000, 3)},
		{"Phase1ClassicN50k", phase1Row(50_000, 3)},
		{"SolveLargeN5k", solveLargeRow(5_000, 3)},
		{"SolveLargeN20k", solveLargeRow(20_000, 3)},
		{"SolveLargeN50k", solveLargeRow(50_000, 3)},
	}
}

func bicameralInputs() (*residual.Graph, bicameral.Params, bool) {
	ins := benchInstance(30, 2, 1.2)
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.LinCost)
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
	f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinCost)
	if err != nil {
		panic(err)
	}
	f2, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.LinDelay)
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
