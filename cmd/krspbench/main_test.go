package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchOutput is go test -bench -benchmem -v output for two packages at
// GOMAXPROCS=2, trimmed to a few rows, with a skipped benchmark added in
// the form -v prints it.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkDecodeN5k
BenchmarkDecodeN5k-2       	     356	   3345055 ns/op	  87.77 MB/s	 1212560 B/op	      11 allocs/op
BenchmarkSolveN60K3
BenchmarkSolveN60K3-2      	    6150	    219984 ns/op	   64296 B/op	     119 allocs/op
BenchmarkBicameralFind
    bench_test.go:197: min-cost flow already feasible on this seed
--- SKIP: BenchmarkBicameralFind
PASS
ok  	repro	12.027s
goos: linux
goarch: amd64
pkg: repro/cmd/krspd
cpu: Intel(R) Xeon(R) Processor
BenchmarkSolveHTTPN5k
BenchmarkSolveHTTPN5k/hit
BenchmarkSolveHTTPN5k/hit-2         	    2402	    517351 ns/op	  309552 B/op	      70 allocs/op
BenchmarkSolveHTTPN5k/miss
BenchmarkSolveHTTPN5k/miss-2        	      70	  21850212 ns/op	 2575960 B/op	    1124 allocs/op
PASS
ok  	repro/cmd/krspd	3.094s
`

var benchRows = []record{
	{Name: "DecodeN5k", Iters: 356, NsPerOp: 3345055, AllocsPerOp: 11, BytesPerOp: 1212560},
	{Name: "SolveN60K3", Iters: 6150, NsPerOp: 219984, AllocsPerOp: 119, BytesPerOp: 64296},
	{Name: "SolveHTTPN5k/hit", Iters: 2402, NsPerOp: 517351, AllocsPerOp: 70, BytesPerOp: 309552},
	{Name: "SolveHTTPN5k/miss", Iters: 70, NsPerOp: 21850212, AllocsPerOp: 1124, BytesPerOp: 2575960},
}

// TestParse reads result lines with the -procs suffix (GOMAXPROCS=2) and
// without it (GOMAXPROCS=1, where go test adds none): the MB/s column is
// skipped, sub-benchmark paths are kept, and a skipped benchmark is
// reported but has no row.
func TestParse(t *testing.T) {
	for procs, text := range map[int]string{
		2: benchOutput,
		1: strings.ReplaceAll(benchOutput, "-2 ", " "),
	} {
		var out bytes.Buffer
		rows := parse(strings.NewReader(text), procs, &out)
		if !reflect.DeepEqual(rows, benchRows) {
			t.Fatalf("GOMAXPROCS=%d: rows\n%+v\nwant\n%+v", procs, rows, benchRows)
		}
		if !regexp.MustCompile(`(?m)^BicameralFind +skipped$`).MatchString(out.String()) {
			t.Fatalf("GOMAXPROCS=%d: skip not reported:\n%s", procs, out.String())
		}
	}
	// At GOMAXPROCS=1 a -2 ending is part of the name.
	if rows := parse(strings.NewReader("BenchmarkX/n-2 \t 5\t 10 ns/op\t 0 B/op\t 0 allocs/op\n"), 1, &bytes.Buffer{}); len(rows) != 1 || rows[0].Name != "X/n-2" {
		t.Fatalf("rows = %+v, want X/n-2", rows)
	}
}

// fakeGo puts a go command first on PATH that records its arguments, one a
// line, in the returned file, prints stdout and exits with code.
func fakeGo(t *testing.T, stdout string, code int) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("the fake go command is a shell script")
	}
	dir := t.TempDir()
	args, text := filepath.Join(dir, "args"), filepath.Join(dir, "stdout")
	if err := os.WriteFile(text, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	script := fmt.Sprintf("#!/bin/sh\nprintf '%%s\\n' \"$@\" > '%s'\ncat '%s'\nexit %d\n", args, text, code)
	if err := os.WriteFile(filepath.Join(dir, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	return args
}

// procsOutput renders benchOutput as go test prints it at this process's
// GOMAXPROCS, which run assumes the benchmarks ran at.
func procsOutput() string {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p != 1 {
		suffix = fmt.Sprintf("-%d", p)
	}
	return strings.ReplaceAll(benchOutput, "-2 ", suffix+" ")
}

// TestRunWritesReport: run hands go test the -bench pattern built from
// -run, with -benchmem and without -short, over both benchmark packages,
// and writes what it parsed as a krspbench/1 report.
func TestRunWritesReport(t *testing.T) {
	argsPath := fakeGo(t, procsOutput(), 0)
	outPath := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run([]string{"-run", "decode, SolveN60K3,SolveHTTPN5k/HIT", "-out", outPath}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	args, err := os.ReadFile(argsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := "test\n-run\n^$\n-bench\n(?i)decode|(?i)SolveN60K3|(?i)SolveHTTPN5k/(?i)HIT\n-benchmem\n-v\nrepro\nrepro/cmd/krspd\n"
	if string(args) != want {
		t.Fatalf("go args:\n%s\nwant:\n%s", args, want)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "krspbench/1" || !reflect.DeepEqual(rep.Benchmarks, benchRows) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRunUnmatchedEntryFails: a -run entry that names no measured
// benchmark, a skipped one included, fails the run, so a guard row cannot
// drop out of the check unnoticed.
func TestRunUnmatchedEntryFails(t *testing.T) {
	fakeGo(t, procsOutput(), 0) // BicameralFind skips
	path := writeBaseline(t, `{"schema": "krspbench/1", "benchmarks": [
  {"name": "BicameralFind", "allocs_per_op": 8, "bytes_per_op": 984}
]}`)
	var out bytes.Buffer
	err := run([]string{"-run", "SolveHTTPN5k/hit,BicameralFind,NoSuchRow", "-baseline", path}, &out)
	if err == nil {
		t.Fatalf("unmatched -run entries passed\n%s", out.String())
	}
	if msg := err.Error(); !strings.Contains(msg, "BicameralFind, NoSuchRow") || strings.Contains(msg, "SolveHTTPN5k") {
		t.Fatalf("error should name the two unmatched entries only: %v", err)
	}
}

// TestRunFailsOnGoTestError: a go test that exits non-zero fails the run
// with its output, even after it printed results.
func TestRunFailsOnGoTestError(t *testing.T) {
	fakeGo(t, procsOutput()+"--- FAIL: BenchmarkSolveLargeN5k\n    bench_large_test.go:12: boom\nFAIL\n", 1)
	var out bytes.Buffer
	err := run([]string{"-out", filepath.Join(t.TempDir(), "report.json")}, &out)
	if err == nil || !strings.Contains(err.Error(), "exit status 1") || !strings.Contains(err.Error(), "bench_large_test.go:12: boom") {
		t.Fatalf("err = %v, want go test's exit status and output", err)
	}
}

// TestGuardBytesRule: bench-guard's B/op rule. B/op may rise by up to 5%
// of the baseline; beyond that the row fails even with allocs/op flat.
func TestGuardBytesRule(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	within := []record{{Name: "Phase1ClassicN5k", AllocsPerOp: 270, BytesPerOp: 2310000}} // +5.0%
	if err := diffBaseline(&out, path, within, false); err != nil {
		t.Fatalf("+5%% B/op rejected: %v\n%s", err, out.String())
	}
	beyond := []record{{Name: "Phase1ClassicN5k", AllocsPerOp: 270, BytesPerOp: 2310001}}
	err := diffBaseline(&out, path, beyond, false)
	if err == nil {
		t.Fatalf("B/op regression past 5%% not caught\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "Phase1ClassicN5k: 2310001 B/op > baseline 2200000 + 5%") {
		t.Fatalf("error: %v", err)
	}
}

// TestStrictRowWithoutBaselineFails: a row that -run selects but the
// baseline lacks (a renamed or newly listed guard row) fails, naming the
// row, even beside a row that passes; without -run the same row is only
// reported.
func TestStrictRowWithoutBaselineFails(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	current := []record{
		{Name: "SolveN60K3", NsPerOp: 900000, AllocsPerOp: 229, BytesPerOp: 200000},
		{Name: "SolveLargeN5k", NsPerOp: 37000000, AllocsPerOp: 506, BytesPerOp: 2030000},
	}
	var out bytes.Buffer
	if err := diffBaseline(&out, path, current, false); err != nil {
		t.Fatalf("full-suite run failed on an unbaselined row: %v\n%s", err, out.String())
	}
	out.Reset()
	err := diffBaseline(&out, path, current, true)
	if err == nil {
		t.Fatalf("-run row without a baseline passed\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "SolveLargeN5k") || strings.Contains(err.Error(), "SolveN60K3") {
		t.Fatalf("error should name only the unbaselined row: %v", err)
	}
}

const baselineFullJSON = `{
  "schema": "krspbench/1",
  "benchmarks": [
    {"name": "SolveN60K3", "ns_per_op": 900000, "allocs_per_op": 229, "bytes_per_op": 200000},
    {"name": "Phase1ClassicN5k", "ns_per_op": 16000000, "allocs_per_op": 270, "bytes_per_op": 2200000}
  ]
}`

func TestBaselineDeltaTable(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	current := []record{
		{Name: "SolveN60K3", NsPerOp: 450000, AllocsPerOp: 173, BytesPerOp: 150000},
		{Name: "Phase1ClassicN5k", NsPerOp: 15000000, AllocsPerOp: 270, BytesPerOp: 2200000},
		{Name: "BrandNewRow", NsPerOp: 10, AllocsPerOp: 1, BytesPerOp: 8},
	}
	if err := diffBaseline(&out, path, current, false); err != nil {
		t.Fatalf("diffBaseline failed: %v\n%s", err, out.String())
	}
	text := out.String()
	// The table must carry the improvement as a negative ns/op delta, flag
	// rows absent from the baseline, and show a zero allocs delta.
	if !strings.Contains(text, "-50.0%") {
		t.Fatalf("ns/op delta missing:\n%s", text)
	}
	if !strings.Contains(text, "(new)") {
		t.Fatalf("new row not flagged:\n%s", text)
	}
	if !strings.Contains(text, "+0") {
		t.Fatalf("flat allocs delta missing:\n%s", text)
	}
}

func TestBaselineFailsOnAllocRegression(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	err := diffBaseline(&out, path, []record{
		{Name: "SolveN60K3", NsPerOp: 400000, AllocsPerOp: 230, BytesPerOp: 150000},
	}, false)
	if err == nil {
		t.Fatal("alloc regression not caught")
	}
	if !strings.Contains(err.Error(), "SolveN60K3: 230 allocs/op > baseline 229") {
		t.Fatalf("error: %v", err)
	}
	// A faster-but-allocating run must still fail: ns/op never excuses allocs.
	if !strings.Contains(out.String(), "-5") {
		t.Fatalf("table should still have printed:\n%s", out.String())
	}
}

func TestBaselineFailsOnEmptyIntersection(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	if err := diffBaseline(&out, path, []record{{Name: "Nope"}}, false); err == nil {
		t.Fatal("empty intersection accepted")
	}
}

func TestGuardFailsOnMissingOrBadBaseline(t *testing.T) {
	var out bytes.Buffer
	if err := diffBaseline(&out, "/nonexistent.json", nil, false); err == nil {
		t.Fatal("missing baseline accepted")
	}
	path := writeBaseline(t, "not json")
	if err := diffBaseline(&out, path, nil, false); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}
