package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/rec"
	"repro/internal/rsp"
)

func writeInstanceFile(t *testing.T) string {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5)
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 10, Name: "cli test"}
	path := filepath.Join(t.TempDir(), "ins.krsp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteInstance(f, ins); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSolve(t *testing.T) {
	path := writeInstanceFile(t)
	var out bytes.Buffer
	if _, err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "solve: k=2") || !strings.Contains(s, "lower-bound=") {
		t.Fatalf("output:\n%s", s)
	}
	if strings.Contains(s, "BOUND VIOLATED") {
		t.Fatalf("bound violated:\n%s", s)
	}
	if !strings.Contains(s, "path 1:") || !strings.Contains(s, "path 2:") {
		t.Fatalf("paths missing:\n%s", s)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeInstanceFile(t)
	for _, algo := range []string{"solve", "scaled", "phase1", "exact", "minsum", "mindelay", "greedy", "sweep"} {
		var out bytes.Buffer
		if _, err := run([]string{"-algo", algo, path}, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), algo+": k=2") {
			t.Fatalf("%s output:\n%s", algo, out.String())
		}
	}
}

func TestRunLPEngineAndQuiet(t *testing.T) {
	path := writeInstanceFile(t)
	var out bytes.Buffer
	if _, err := run([]string{"-engine", "lp", "-quiet", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "path 1:") {
		t.Fatal("quiet mode printed paths")
	}
}

func TestRunDOTOutput(t *testing.T) {
	path := writeInstanceFile(t)
	dot := filepath.Join(t.TempDir(), "out.dot")
	var out bytes.Buffer
	if _, err := run([]string{"-dot", dot, path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") || !strings.Contains(string(data), "color=red") {
		t.Fatalf("dot file:\n%s", data)
	}
}

func TestRunDIMACSFormat(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 22}
	path := filepath.Join(t.TempDir(), "ins.gr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteDIMACS(f, ins); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if _, err := run([]string{"-format", "dimacs", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solve: k=2") {
		t.Fatalf("output:\n%s", out.String())
	}
	if _, err := run([]string{"-format", "bogus", path}, &out); err == nil {
		t.Fatal("bogus format accepted")
	}
}

func TestRunMinRatioEngine(t *testing.T) {
	path := writeInstanceFile(t)
	var out bytes.Buffer
	if _, err := run([]string{"-engine", "minratio", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "BOUND VIOLATED") {
		t.Fatal("bound violated")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeInstanceFile(t)
	cases := [][]string{
		{"-algo", "bogus", path},
		{"-engine", "bogus", path},
		{"/nonexistent/file.krsp"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if _, err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestErrorLinePrefix: main prints every error behind exactly one "krsp: "
// prefix, whether the error comes from core (whose messages already begin
// "krsp: ") or from the instance parser (whose messages do not).
func TestErrorLinePrefix(t *testing.T) {
	path := writeInstanceFile(t)
	bad := filepath.Join(t.TempDir(), "bad.krsp")
	if err := os.WriteFile(bad, []byte("bogus\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "scaled", "-eps", "NaN", path}, "krsp: epsilons must be positive (got NaN, NaN)"},
		{[]string{bad}, "krsp: parsing " + bad + `: line 1: expected header 'krsp v1', got "bogus"`},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		_, err := run(tc.args, &out)
		if err == nil {
			t.Fatalf("args %v accepted", tc.args)
		}
		if got := errorLine(err); got != tc.want {
			t.Errorf("args %v: printed %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestRunGreedyHugeBound: `krsp -algo greedy` on a 4-node instance with
// delay bound 2^40 fails with an error (exit 1) instead of asking the
// runtime for the (bound+1)·n layered graph of its restricted shortest
// path, which ended the process with a fatal out-of-memory error.
func TestRunGreedyHugeBound(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	ins := graph.Instance{G: g, S: 0, T: 3, K: 2, Bound: 1 << 40, Name: "huge bound"}
	path := filepath.Join(t.TempDir(), "huge.krsp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteInstance(f, ins); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = run([]string{"-algo", "greedy", path}, &out)
	if !errors.Is(err, baseline.ErrFailed) || !strings.Contains(err.Error(), rsp.ErrTooLarge.Error()) {
		t.Fatalf("krsp -algo greedy with bound 2^40: err = %v, want a greedy failure citing %q", err, rsp.ErrTooLarge)
	}
}

func TestRunStatsAndTrace(t *testing.T) {
	path := writeInstanceFile(t)
	tfile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if _, err := run([]string{"-stats", "-trace", tfile, path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "cancellations=")
	if i < 0 {
		t.Fatalf("no stats line:\n%s", s)
	}
	var cancels int
	if _, err := fmt.Sscanf(s[i:], "cancellations=%d", &cancels); err != nil {
		t.Fatalf("stats line unparsable: %v\n%s", err, s)
	}
	data, err := os.ReadFile(tfile)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if trimmed := strings.TrimSpace(string(data)); trimmed != "" {
		lines = strings.Split(trimmed, "\n")
	}
	// One record per cancellation plus the summary trailer.
	if len(lines) != cancels+1 {
		t.Fatalf("trace has %d lines, stats reported %d cancellations (+1 summary)\n%s",
			len(lines), cancels, data)
	}
	for _, line := range lines[:cancels] {
		var rec core.IterationRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.CRef <= 0 {
			t.Fatalf("trace record missing cref: %q", line)
		}
	}
	var sum traceSummary
	if err := json.Unmarshal([]byte(lines[cancels]), &sum); err != nil {
		t.Fatalf("trace summary %q: %v", lines[cancels], err)
	}
	if !sum.Summary || sum.Degraded || sum.Iterations != cancels {
		t.Fatalf("trace summary = %+v, want summary=true degraded=false iterations=%d",
			sum, cancels)
	}
	// -stats/-trace are meaningless for algorithms without core.Stats.
	if _, err := run([]string{"-algo", "exact", "-stats", path}, &out); err == nil {
		t.Fatal("-stats with -algo exact accepted")
	}
}

// TestRunTimeoutDegrades: an expired -timeout must still print a feasible
// answer, flag it, return degraded=true (exit code 2 in main), and close
// the trace with a degraded summary line.
func TestRunTimeoutDegrades(t *testing.T) {
	path := writeInstanceFile(t)
	tfile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	degraded, err := run([]string{"-timeout", "-1ms", "-trace", tfile, path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatalf("expected a degraded run:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "[DEGRADED") {
		t.Fatalf("summary line missing the degraded marker:\n%s", s)
	}
	if strings.Contains(s, "BOUND VIOLATED") {
		t.Fatalf("degraded answer violates the bound:\n%s", s)
	}
	data, err := os.ReadFile(tfile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var sum traceSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("trace summary: %v", err)
	}
	if !sum.Summary || !sum.Degraded {
		t.Fatalf("trace summary = %+v, want summary=true degraded=true", sum)
	}
	// A generous timeout must not degrade anything.
	out.Reset()
	degraded, err = run([]string{"-timeout", "1h", path}, &out)
	if err != nil || degraded {
		t.Fatalf("generous timeout: degraded=%v err=%v", degraded, err)
	}
}

func TestRunInfeasibleInstance(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1, 10)
	ins := graph.Instance{G: g, S: 0, T: 1, K: 2, Bound: 5}
	path := filepath.Join(t.TempDir(), "bad.krsp")
	f, _ := os.Create(path)
	if err := graph.WriteInstance(f, ins); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if _, err := run([]string{path}, &out); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

// TestRunFlightDump: -flight writes a parseable flight-recorder dump whose
// stream brackets the solve, and -trace-id pins the header's trace ID.
func TestRunFlightDump(t *testing.T) {
	path := writeInstanceFile(t)
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	var out bytes.Buffer
	if _, err := run([]string{"-quiet", "-flight", dump, "-trace-id", id, path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, evs, err := rec.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Trace != id || hdr.Schema != rec.Schema {
		t.Fatalf("flight header = %+v, want trace %s schema %d", hdr, id, rec.Schema)
	}
	if len(evs) == 0 || evs[0].Kind != rec.KindSolveStart || evs[len(evs)-1].Kind != rec.KindSolveEnd {
		t.Fatalf("flight stream malformed: %d events", len(evs))
	}
}

// TestRunFlightFlagValidation: bad trace IDs and baseline algos are
// rejected up front.
func TestRunFlightFlagValidation(t *testing.T) {
	path := writeInstanceFile(t)
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	var out bytes.Buffer
	if _, err := run([]string{"-flight", dump, "-trace-id", "XYZ", path}, &out); err == nil {
		t.Fatal("bad -trace-id accepted")
	}
	if _, err := run([]string{"-algo", "minsum", "-flight", dump, path}, &out); err == nil {
		t.Fatal("-flight with a baseline algo accepted")
	}
}

// TestTraceSummarySchema: the -trace trailer line carries the schema
// version and the trace ID.
func TestTraceSummarySchema(t *testing.T) {
	path := writeInstanceFile(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	var out bytes.Buffer
	if _, err := run([]string{"-quiet", "-trace", trace, "-trace-id", id, path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var sum traceSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || sum.Schema != rec.Schema || sum.Trace != id {
		t.Fatalf("summary = %+v, want schema %d trace %s", sum, rec.Schema, id)
	}
}
