// Command krspperf is the repository benchmark. It runs four workloads over
// the solver and the krspd service, checks every answer against its input,
// and prints each metric as "workload metric value unit", followed by one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//	krspperf -workload solve-lgrid-2k -seed 1 -seconds 25 -trace 0
//	krspperf -workload all -runs 5 -out base.json
//	krspperf -compare base.json head.json
//
// Solver workloads call core.Solve in-process with production defaults.
// krspd workloads build ./cmd/krspd, start real nodes on loopback and drive
// them over HTTP with at most two requests in flight. Every input comes from
// internal/gen under -seed. With -trace 0 a run reports the end-to-end
// metrics; with -trace 1 it reports the per-layer ones, read from the
// solver's flight-recorder events and metric registry and from krspd's
// /metrics, all from outside the program. README.md lists the workloads, the
// metrics and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the solver or the service sees; every
// workload reports all of them. BENCHMARK.json fixes their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"rss_mb", "MB"},
	{"cost_over_lb", "ratio"},
}

// perLayer are the traced run's metrics, per solve on the solver workloads
// and per request on the krspd ones. A layer a workload never enters reads 0.
var perLayer = []metricSpec{
	{"phase1.ms", "ms"},
	{"phase1.share", "ratio"},
	{"phase1.lambda_iters", "count"},
	{"flow.augmentations", "count"},
	{"flow.relaxations", "count"},
	{"search.ms", "ms"},
	{"search.share", "ratio"},
	{"search.finds", "count"},
	{"search.detect_rounds", "count"},
	{"search.candidates", "count"},
	{"search.found_ratio", "ratio"},
	{"search.budgets", "count"},
	{"shortest.spfa_runs", "count"},
	{"shortest.spfa_relaxations", "count"},
	{"residual.ms", "ms"},
	{"residual.flipped_edges", "count"},
	{"cancel.iterations", "count"},
	{"cancel.cref_escalations", "count"},
	{"cancel.fallback_frac", "ratio"},
	{"cancel.relaxed_frac", "ratio"},
	{"cancel.other_ms", "ms"},
	{"decompose.ms", "ms"},
	{"decode.ms", "ms"},
	{"fingerprint.ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"http.hit_ms.p50", "ms"},
	{"proxy.frac", "ratio"},
	{"proxy.retries", "count"},
	{"http.local_ms.p50", "ms"},
	{"http.proxied_ms.p50", "ms"},
	{"server.phase1_ms", "ms"},
	{"server.cancel_ms", "ms"},
	{"server.solves_per_req", "count"},
	{"cert.over_2lb", "count"},
	{"gen.late_ms.p90", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.dropped", "count"},
	{"trace.layer_coverage", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists what made the run fail: certificate failures and
	// broken validity conditions.
	Problems []string `json:"problems,omitempty"`
}

// environment stamps a report with what the numbers depend on.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Scale      string `json:"scale"`
}

// report is the JSON file -out writes and -compare reads.
type report struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

// runConfig is what one run needs besides its workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository root, where ./cmd/krspd is built from
	dir     string // build directory: krspd binary and node logs
	krspd   string // krspd binary; empty until built
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code returned: 0 when every run passed, 1 when
// an answer failed its certificate or a run broke a validity condition, 2
// when the benchmark could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("krspperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed; runs of -runs N use seed, seed+1, ...")
	seconds := fs.Float64("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer ones")
	scale := fs.String("scale", "full", "input sizes: full, or tiny for smoke tests")
	runs := fs.Int("runs", 1, "runs per workload")
	out := fs.String("out", "", "write the JSON report of every run to this file")
	compare := fs.Bool("compare", false, "compare two reports: krspperf -compare base.json head.json")
	bench := fs.String("bench", "BENCHMARK.json", "metric bounds for -compare")
	build := fs.String("build", ".bench_build", "directory for the krspd binary and node logs")
	krspd := fs.String("krspd", "", "krspd binary to use instead of building ./cmd/krspd")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "krspperf: -compare takes two reports: base.json head.json")
			return 2
		}
		if err := compareReports(stdout, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "krspperf:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "krspperf: bad arguments (want -trace 0|1, -seconds > 0, -runs ≥ 1, no positional arguments)")
		return 2
	}
	wls, err := selectWorkloads(*scale, *workloadFlag)
	if err != nil {
		fmt.Fprintln(stderr, "krspperf:", err)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "krspperf:", err)
		return 2
	}
	rc := runConfig{
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		root:    root,
		krspd:   *krspd,
	}
	if rc.dir, err = filepath.Abs(*build); err != nil {
		fmt.Fprintln(stderr, "krspperf:", err)
		return 2
	}
	rep := report{Env: stampEnv(root, *scale)}
	fmt.Fprintf(stdout, "# go=%s gomaxprocs=%d nproc=%d commit=%s scale=%s\n",
		rep.Env.Go, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.Commit, rep.Env.Scale)
	code := 0
	for _, w := range wls {
		if w.service() && rc.krspd == "" {
			// Built once, before any clock starts; not part of setup_s.
			if rc.krspd, err = buildKrspd(root, rc.dir); err != nil {
				fmt.Fprintln(stderr, "krspperf:", err)
				return 2
			}
		}
		for i := 0; i < *runs; i++ {
			rc.seed = *seed + int64(i)
			res, err := runWorkload(w, rc)
			if err != nil {
				fmt.Fprintf(stderr, "krspperf: %s seed %d: %v\n", w.name, rc.seed, err)
				return 2
			}
			if !res.Correct || res.Failed > 0 {
				code = 1
				for _, p := range res.Problems {
					fmt.Fprintf(stderr, "krspperf: %s seed %d: %s\n", w.name, rc.seed, p)
				}
			}
			printRun(stdout, res)
			rep.Runs = append(rep.Runs, *res)
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "krspperf:", err)
			return 2
		}
	}
	return code
}

// runWorkload runs one workload once and shapes its result.
func runWorkload(w workload, rc runConfig) (*runResult, error) {
	var m map[string]float64
	var o outcome
	var err error
	if w.service() {
		m, o, err = runService(w, rc)
	} else {
		m, o, err = runSolver(w, rc)
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	res := &runResult{
		Workload: w.name, Seed: rc.seed, Seconds: rc.seconds.Seconds(), Trace: rc.trace,
		Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}, Problems: o.problems,
	}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok && !rc.trace {
			return nil, fmt.Errorf("internal: metric %s not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: finite(v), Unit: s.unit}
	}
	return res, nil
}

// outcome counts a run's operations and lists what went wrong.
type outcome struct {
	attempted, failed int
	problems          []string
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// invalid records a broken validity condition: the run measured something
// other than the workload.
func (o *outcome) invalid(format string, args ...any) {
	o.problems = append(o.problems, "invalid run: "+fmt.Sprintf(format, args...))
}

// finite keeps the JSON encodable: a percentile that landed on a failed
// operation (+Inf) reads as the largest float, worse than any measurement.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	}
	return v
}

// printRun writes one run's metric lines and, last, its JSON line.
func printRun(w io.Writer, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(line))
}

// repoRoot finds the repository root: the nearest directory at or above the
// working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && moduleName(b) == "repro" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a go.mod declaring module repro) at or above the working directory")
		}
		dir = parent
	}
}

func moduleName(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// stampEnv records the toolchain, the CPUs and, when the root is a git
// checkout and git is installed, the commit.
func stampEnv(root, scale string) environment {
	e := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: "unknown", Scale: scale,
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return e
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	return e
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports prints, for every workload × end-to-end metric, each side's
// median and quartiles, head's win fraction over paired runs, and a verdict.
func compareReports(w io.Writer, benchPath, basePath, headPath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	head, err := readReport(headPath)
	if err != nil {
		return err
	}
	values := func(rep report, wl, name string) []float64 {
		var out []float64
		for _, r := range rep.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == wl && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var wls []string
	seen := map[string]bool{}
	for _, r := range base.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	fmt.Fprintf(w, "%-22s %-18s %28s %28s %5s  %s\n", "workload", "metric",
		"base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, wl := range wls {
		for _, e := range bf.EndToEnd {
			bv, hv := values(base, wl, e.Name), values(head, wl, e.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := compareRuns(bv, hv, e.Better, e.Bound)
			fmt.Fprintf(w, "%-22s %-18s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %5.2f  %s (bound %.0f%%)\n",
				wl, e.Name, c.baseMedian, c.baseQ1, c.baseQ3, c.headMedian, c.headQ1, c.headQ3,
				c.winFrac, c.verdict, e.Bound*100)
		}
	}
	return nil
}
