// Command krspbench runs the repository's go test benchmarks (bench_test.go,
// bench_large_test.go and cmd/krspd/bench_test.go) and writes their results
// as a machine-readable JSON report (BENCH_1.json by default): one record
// per benchmark with ns/op, allocs/op and B/op. CI and the README
// performance workflow diff these reports across commits.
//
// Usage:
//
//	krspbench                        # every benchmark → BENCH_1.json
//	krspbench -out report.json       # custom output path
//	krspbench -run Solve,HTTPN5k/hit # case-insensitive substrings; a /
//	                                 # starts a sub-benchmark level
//	krspbench -baseline BENCH_1.json # delta table vs the baseline, failing
//	                                 # on any allocs/op rise or a B/op rise
//	                                 # above 5% (no report written unless
//	                                 # -out is given explicitly)
//
// Under -run, an entry that matches no measured benchmark is an error, and
// so, under -baseline, is a selected row the baseline lacks: a renamed or
// skipped guard row cannot pass unchecked.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "krspbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("krspbench", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_1.json", "output JSON path (- for stdout)")
	filter := fs.String("run", "", "comma-separated case-insensitive substrings, a / starting a sub-benchmark level; empty = all")
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
	pattern := "."
	var wanted []string
	if *filter != "" {
		wanted = strings.Split(*filter, ",")
		quoted := make([]string, len(wanted))
		for i, w := range wanted {
			// go test -bench splits the pattern into alternatives at each
			// top-level | and into sub-benchmark levels at each /, and
			// compiles every piece alone: each needs its own (?i).
			quoted[i] = "(?i)" + strings.ReplaceAll(regexp.QuoteMeta(strings.TrimSpace(w)), "/", "/(?i)")
		}
		pattern = strings.Join(quoted, "|")
	}
	rows, err := goTestBench(out, pattern)
	if err != nil {
		return err
	}
	if miss := unmatched(wanted, rows); len(miss) > 0 {
		return fmt.Errorf("-run entries matched no benchmark: %s", strings.Join(miss, ", "))
	}
	if *basePath != "" {
		// Rows picked by -run were asked for by name: each must have a baseline.
		if err := diffBaseline(out, *basePath, rows, len(wanted) > 0); err != nil {
			return err
		}
		if !outSet {
			return nil // baseline mode: don't clobber the baseline
		}
	}
	data, err := json.MarshalIndent(report{
		Schema:     "krspbench/1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: rows,
	}, "", "  ")
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

// goTestBench runs the benchmarks that match pattern through go test, in
// the two packages that define benchmarks (named by import path, so that
// krspbench runs from any directory of the module), and returns their
// results. go test runs the benchmark binaries one at a time and never
// caches a -bench run; -v makes it print skipped benchmarks. -short is
// never passed: the large tier skips under it.
func goTestBench(out io.Writer, pattern string) ([]record, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern, "-benchmem", "-v", "repro", "repro/cmd/krspd")
	var stdout, stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	rows := parse(io.TeeReader(pipe, &stdout), runtime.GOMAXPROCS(0), out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test: %w\n%s%s", err, stdout.Bytes(), stderr.Bytes())
	}
	return rows, nil
}

// parse reads go test -bench -benchmem -v output to its end, returning a
// record per result line and reporting each result and each skipped
// benchmark to out as it arrives. go test suffixes result names with
// -procs unless procs, the GOMAXPROCS the benchmarks ran at, is 1. In
//
//	BenchmarkDecodeN5k-2   356   3219146 ns/op   1510.11 MB/s   1212561 B/op   11 allocs/op
//
// ns/op comes first and B/op and allocs/op last; columns between them,
// like DecodeN5k's MB/s, are skipped.
func parse(in io.Reader, procs int, out io.Writer) []record {
	var rows []record
	br := bufio.NewReader(in)
	for {
		line, err := br.ReadString('\n')
		f := strings.Fields(line)
		if n := len(f); n >= 8 && strings.HasPrefix(f[0], "Benchmark") &&
			f[3] == "ns/op" && f[n-3] == "B/op" && f[n-1] == "allocs/op" {
			iters, err1 := strconv.Atoi(f[1])
			ns, err2 := strconv.ParseFloat(f[2], 64)
			b, err3 := strconv.ParseInt(f[n-4], 10, 64)
			allocs, err4 := strconv.ParseInt(f[n-2], 10, 64)
			if errors.Join(err1, err2, err3, err4) == nil {
				name := strings.TrimPrefix(f[0], "Benchmark")
				if procs != 1 {
					name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
				}
				rows = append(rows, record{Name: name, Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: b})
				fmt.Fprintf(out, "%-28s %12.0f ns/op %10d allocs/op %12d B/op\n", name, ns, allocs, b)
			}
		} else if len(f) > 2 && f[0] == "---" && f[1] == "SKIP:" {
			fmt.Fprintf(out, "%-28s skipped\n", strings.TrimPrefix(f[2], "Benchmark"))
		}
		if err != nil {
			return rows // io.EOF, or a broken pipe that go test's exit status reports
		}
	}
}

// unmatched returns the -run entries that no measured row matches, level
// by level as go test -bench matches each alternative: every /-separated
// element of an entry is a case-insensitive substring of the same level of
// the name.
func unmatched(wanted []string, rows []record) []string {
	var miss []string
	for _, w := range wanted {
		want := strings.Split(strings.ToLower(strings.TrimSpace(w)), "/")
		if !slices.ContainsFunc(rows, func(r record) bool {
			name := strings.Split(strings.ToLower(r.Name), "/")
			for i := range want {
				if i >= len(name) || !strings.Contains(name[i], want[i]) {
					return false
				}
			}
			return true
		}) {
			miss = append(miss, w)
		}
	}
	return miss
}

// bytesTolerancePct is how far, in percent, a row's B/op may rise above its
// baseline before -baseline fails it. B/op is near-deterministic: over two
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

// diffBaseline prints a per-benchmark delta table against a previous report
// and fails on any regression (see regressions) of a row present in both,
// or, when strict (rows selected by -run), on a row the baseline lacks.
// allocs/op and B/op are the checked quantities because they are
// deterministic, or nearly so; ns/op deltas are informational (they are
// machine- and load-dependent).
func diffBaseline(out io.Writer, path string, current []record, strict bool) error {
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
	if strict && len(missing) > 0 {
		return fmt.Errorf("baseline: rows selected by -run have no baseline in %s: %s", path, strings.Join(missing, ", "))
	}
	if compared == 0 {
		return fmt.Errorf("baseline: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}
