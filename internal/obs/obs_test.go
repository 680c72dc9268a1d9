package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New(nil)
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 150, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // ≤10: {5,10}; ≤100: {11}; ≤1000: {150}; +Inf: {5000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 || h.Sum() != 5176 {
		t.Fatalf("count/sum = %d/%d, want 5/5176", h.Count(), h.Sum())
	}
}

func TestSpanWithManualClock(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	clk.Set(1_000_000)
	s := r.StartSpan(PhaseCancel)
	clk.Advance(250_000_000) // 250ms
	s.End()
	h := r.PhaseHistogram(PhaseCancel)
	if h.Count() != 1 || h.Sum() != 250_000_000 {
		t.Fatalf("phase hist count/sum = %d/%d, want 1/250000000", h.Count(), h.Sum())
	}
	// 250ms lands in the ≤316ms bucket; the exposition must show it
	// cumulatively from there up.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `krsp_solve_phase_duration_seconds_bucket{phase="cancel",le="0.316"} 1`) {
		t.Fatalf("missing cumulative bucket line in:\n%s", out)
	}
	if !strings.Contains(out, `krsp_solve_phase_duration_seconds_sum{phase="cancel"} 0.25`) {
		t.Fatalf("missing sum line in:\n%s", out)
	}
}

func TestZeroClockSpansStillCount(t *testing.T) {
	r := New(nil)
	s := r.StartSpan(PhaseTotal)
	s.End()
	if got := r.PhaseHistogram(PhaseTotal).Count(); got != 1 {
		t.Fatalf("total phase count = %d, want 1", got)
	}
	if got := r.PhaseHistogram(PhaseTotal).Sum(); got != 0 {
		t.Fatalf("total phase sum = %d, want 0 under the zero clock", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Now() != 0 {
		t.Fatal("nil registry Now should read 0")
	}
	r.Counter("x", "h").Inc()
	r.Gauge("x", "h").Set(3)
	r.Histogram("x", "h", []int64{1}).Observe(2)
	r.StartSpan(PhaseCancel).End()
	r.ShortestMetrics().RecordRuns(1, 10, 1)
	r.SolverMetrics()
	r.FlowMetrics()
	r.BicameralMetrics()
	r.ServerMetrics()
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	if r.PhaseHistogram(PhaseTotal) != nil {
		t.Fatal("nil registry phase histogram should be nil")
	}
}

func TestExpositionFormat(t *testing.T) {
	r := New(nil)
	r.Solver.Cycles[0].Add(3)
	r.Solver.Cycles[2].Inc()
	r.Server.Inflight.Set(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP krsp_cycles_total ",
		"# TYPE krsp_cycles_total counter",
		`krsp_cycles_total{type="0"} 3`,
		`krsp_cycles_total{type="1"} 0`,
		`krsp_cycles_total{type="2"} 1`,
		"# TYPE krspd_inflight_requests gauge",
		"krspd_inflight_requests 2",
		"# TYPE krsp_solve_phase_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// HELP/TYPE headers must appear exactly once per family even though
	// krsp_cycles_total has three labeled entries.
	if n := strings.Count(out, "# TYPE krsp_cycles_total counter"); n != 1 {
		t.Errorf("TYPE header for krsp_cycles_total appears %d times, want 1", n)
	}
	// Every line must be a header or `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New(nil)
	r.Solver.Solves.Add(2)
	r.Solver.LambdaIterations.Observe(3)
	snap := r.Snapshot()
	if got := snap["krsp_solves_total"]; got != int64(2) {
		t.Fatalf("snapshot solves = %v, want 2", got)
	}
	hist, ok := snap["krsp_phase1_lambda_iterations"].(map[string]any)
	if !ok {
		t.Fatalf("lambda iterations snapshot is %T, want map", snap["krsp_phase1_lambda_iterations"])
	}
	if hist["count"] != int64(1) {
		t.Fatalf("hist count = %v, want 1", hist["count"])
	}
	if hist["buckets"].(map[string]int64)["4"] != 1 {
		t.Fatalf("cumulative ≤4 bucket = %v, want 1", hist["buckets"])
	}
	keys := r.sortedSnapshotKeys()
	if len(keys) != len(snap) {
		t.Fatalf("sortedSnapshotKeys len %d != snapshot len %d", len(keys), len(snap))
	}
}

func TestFamiliesDistinctAndOrdered(t *testing.T) {
	r := New(nil)
	fams := r.Families()
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f] {
			t.Fatalf("family %s repeated", f)
		}
		seen[f] = true
	}
	if fams[0] != "krspd_solve_requests_total" {
		t.Fatalf("first family = %s; catalogue order changed?", fams[0])
	}
}

// The zero-alloc contract: recording must not allocate, with a live
// registry or a nil one. bench-guard enforces the same end to end.
func TestRecordPathAllocs(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	checks := []struct {
		name string
		f    func()
	}{
		{"counter-inc", func() { r.Solver.Solves.Inc() }},
		{"counter-add", func() { r.Flow.Relaxations.Add(17) }},
		{"gauge", func() { r.Server.Inflight.Add(1) }},
		{"histogram", func() { r.Solver.LambdaIterations.Observe(9) }},
		{"span", func() { s := r.StartSpan(PhaseCancel); clk.Advance(5); s.End() }},
		{"record-runs", func() { r.ShortestMetrics().RecordRuns(3, 40, 1) }},
	}
	var nilReg *Registry
	checks = append(checks, struct {
		name string
		f    func()
	}{"nil-span", func() { nilReg.StartSpan(PhaseTotal).End() }})
	for _, c := range checks {
		if n := testing.AllocsPerRun(200, c.f); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", c.name, n)
		}
	}
}
