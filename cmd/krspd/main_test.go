package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
)

// discardLogger suppresses request logs in tests (go.mod targets go 1.22;
// slog.DiscardHandler arrived later).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// guardGoroutines fails the test when goroutines spawned during it outlive
// its servers. The entry count is compared after every other cleanup
// (server shutdown, client drains) has run; exits are asynchronous, so the
// check retries until the count stabilizes at or below the baseline before
// declaring a leak.
func guardGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Errorf("goroutine leak: %d at test entry, %d after cleanup", base, n)
		}
	})
}

// testServerCfg spins up a daemon instance with a deterministic clock and
// full control over the operational config.
func testServerCfg(t *testing.T, cfg config) (*httptest.Server, *server) {
	t.Helper()
	guardGoroutines(t)
	s, err := newServer(obs.New(&obs.ManualClock{}), discardLogger(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	return srv, s
}

// testServer is the common-case helper: the given body limit, admission
// control off, no deadlines; pprof off unless a test opts in.
func testServer(t *testing.T, maxBody int64, enablePprof bool) (*httptest.Server, *server) {
	t.Helper()
	return testServerCfg(t, config{maxBody: maxBody, pprof: enablePprof})
}

func instanceBody(t *testing.T, bound int64, k int) *bytes.Buffer {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5)
	ins := graph.Instance{G: g, S: 0, T: 3, K: k, Bound: bound}
	var buf bytes.Buffer
	if err := graph.WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSolveEndpoint(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	resp, err := http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Delay > 10 || out.Violated {
		t.Fatalf("bound violated: %+v", out)
	}
	if out.Cost > 26 || out.Cost < 13 {
		t.Fatalf("cost %d outside [OPT, 2·OPT]", out.Cost)
	}
	if len(out.Paths) != 2 {
		t.Fatalf("%d paths", len(out.Paths))
	}
	for _, p := range out.Paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("path endpoints %v", p)
		}
	}
	if out.RequestID == 0 {
		t.Fatal("missing request id")
	}
	// Stats ride along in the response (per-request observability).
	if out.Stats.Phase1.CLPDen == 0 {
		t.Fatalf("stats not echoed: %+v", out.Stats)
	}
}

func TestSolveEndpointAlgos(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	for _, q := range []string{"?algo=phase1", "?algo=scaled&eps=0.5"} {
		resp, err := http.Post(srv.URL+"/solve"+q, "text/plain", instanceBody(t, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	srv, s := testServer(t, 1<<20, false)
	// Malformed body.
	resp, _ := http.Post(srv.URL+"/solve", "text/plain", strings.NewReader("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Infeasible instance → 422.
	resp, _ = http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 3, 2))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown algo.
	resp, _ = http.Post(srv.URL+"/solve?algo=bogus", "text/plain", instanceBody(t, 10, 2))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus algo: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad eps.
	resp, _ = http.Post(srv.URL+"/solve?algo=scaled&eps=-1", "text/plain", instanceBody(t, 10, 2))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad eps: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// GET not allowed.
	resp, _ = http.Get(srv.URL + "/solve")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.reg.Server.RequestErrors.Value(); got != 5 {
		t.Fatalf("request errors counted = %d, want 5", got)
	}
}

// TestSolveEdgeInstances covers valid inputs at the edges of the exact
// arithmetic: a zero delay bound under algo=phase1 (whose potential
// selection once divided by D) must answer 200, and weights near
// graph.MaxWeight that would wrap int64 must answer 422 like the other
// unsolvable-instance errors, not 500.
func TestSolveEdgeInstances(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	const a, b = 1 << 30, 1 << 29
	for _, tc := range []struct {
		name, query, body string
		want              int
	}{
		{"bound 0, phase1", "?algo=phase1",
			"krsp v1\nnodes 2\nst 0 1\nk 1\nbound 0\nedge 0 1 1 1\nedge 0 1 5 0\n", http.StatusOK},
		{"2^30 weights, phase1", "?algo=phase1", fmt.Sprintf("krsp v1\nnodes 6\nst 0 5\nk 1\nbound 1\n"+
			"edge 0 1 0 %[1]d\nedge 1 2 0 %[1]d\nedge 2 5 0 %[1]d\nedge 0 3 %[1]d 0\nedge 3 4 %[1]d 0\nedge 4 5 %[1]d 0\n", a),
			http.StatusUnprocessableEntity},
		{"2^29 weights, solve", "", fmt.Sprintf("krsp v1\nnodes 6\nst 0 5\nk 1\nbound %[3]d\n"+
			"edge 0 1 0 %[2]d\nedge 1 2 0 %[2]d\nedge 2 5 0 %[2]d\nedge 0 3 1 %[1]d\nedge 3 4 1 %[1]d\nedge 4 5 1 %[1]d\n",
			b, b+1, 3*b+1), http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(srv.URL+"/solve"+tc.query, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, msg)
		}
	}
}

func TestSolveBodyLimit(t *testing.T) {
	srv, _ := testServer(t, 64, false) // 64-byte cap
	big := strings.Repeat("# padding line beyond any reasonable limit\n", 100)
	resp, err := http.Post(srv.URL+"/solve", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// hashes is an endless stream of '#', the comment byte.
type hashes struct{}

func (hashes) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '#'
	}
	return len(p), nil
}

// TestSolveDeclaredBodyTooLarge: on both instance endpoints, a body whose
// Content-Length exceeds -max-body gets its 413 before anything is
// allocated for it; a body of unknown length still gets the same 413 from
// MaxBytesReader.
func TestSolveDeclaredBodyTooLarge(t *testing.T) {
	const limit, size = 8 << 20, 9 << 20
	s, err := newServer(obs.New(&obs.ManualClock{}), discardLogger(), config{maxBody: limit})
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	wantMsg := fmt.Sprintf("body exceeds %d bytes\n", limit)
	for _, path := range []string{"/solve", "/feasible"} {
		for _, declared := range []int64{size, -1} {
			req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(hashes{}, size))
			req.ContentLength = declared
			rr := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rr, req)
			runtime.ReadMemStats(&after)
			if rr.Code != http.StatusRequestEntityTooLarge || rr.Body.String() != wantMsg {
				t.Fatalf("%s, Content-Length %d: status %d %q, want 413 %q", path, declared, rr.Code, rr.Body.String(), wantMsg)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; declared > 0 && alloc >= 64<<10 {
				t.Fatalf("%s: declared %d-byte body allocated %d bytes before its 413, want < 64 KiB", path, declared, alloc)
			}
		}
	}
}

// TestHugeNodeCountRejected: a body naming more than graph.MaxNodes nodes
// is a 400 on both instance endpoints, not an allocation that could take
// the process down.
func TestHugeNodeCountRejected(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	for _, path := range []string{"/solve", "/feasible"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("krsp v1\nnodes 100000000\n"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds MaxNodes") {
			t.Fatalf("%s: status %d %q, want 400 naming MaxNodes", path, resp.StatusCode, msg)
		}
	}
}

func TestFeasibleEndpoint(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	resp, err := http.Post(srv.URL+"/feasible", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		MaxDisjoint int   `json:"maxDisjoint"`
		MinDelay    int64 `json:"minDelay"`
		OK          bool  `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.MaxDisjoint != 3 || out.MinDelay != 7 || !out.OK {
		t.Fatalf("feasible = %+v", out)
	}
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue finds the sample `name value` (name includes labels if any)
// in an exposition body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("sample %s: parse %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in exposition:\n%s", name, body)
	return 0
}

// TestMetricsIntegration is the acceptance check: two /solve calls, then a
// /metrics scrape must show request count = 2, nonzero phase-duration
// histogram counts, and cycle-type counters matching the summed response
// Stats.
func TestMetricsIntegration(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	var cycles [3]int
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		var out solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
		for j, c := range out.Stats.CyclesByType {
			cycles[j] += c
		}
	}
	body := scrape(t, srv)
	if got := metricValue(t, body, "krspd_solve_requests_total"); got != 2 {
		t.Fatalf("solve requests = %d, want 2", got)
	}
	for _, phase := range []string{"phase1", "decompose", "total"} {
		name := fmt.Sprintf(`krsp_solve_phase_duration_seconds_count{phase=%q}`, phase)
		if got := metricValue(t, body, name); got < 2 {
			t.Fatalf("phase %s observations = %d, want ≥ 2", phase, got)
		}
	}
	for j, want := range cycles {
		name := fmt.Sprintf(`krsp_cycles_total{type="%d"}`, j)
		if got := metricValue(t, body, name); got != int64(want) {
			t.Fatalf("cycles type %d = %d, want %d (from response stats)", j, got, want)
		}
	}
	if got := metricValue(t, body, "krsp_solves_total"); got != 2 {
		t.Fatalf("solves = %d, want 2", got)
	}
	if got := metricValue(t, body, "krspd_inflight_requests"); got != 0 {
		t.Fatalf("inflight after completion = %d, want 0", got)
	}
}

func TestDebugVars(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	// One request so the counters are nonzero.
	resp, err := http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("vars not valid JSON: %v", err)
	}
	var krsp map[string]any
	if err := json.Unmarshal(doc["krsp"], &krsp); err != nil {
		t.Fatalf("krsp snapshot: %v", err)
	}
	if v, ok := krsp["krspd_solve_requests_total"].(float64); !ok || v != 1 {
		t.Fatalf("snapshot solve requests = %v, want 1", krsp["krspd_solve_requests_total"])
	}
	if _, ok := krsp[`krsp_solve_phase_duration_seconds{phase="total"}`]; !ok {
		t.Fatal("snapshot missing phase histogram")
	}
}

// TestSolveShedsWhenOverloaded parks one solve inside the solver via a
// blocking fault hook so the single admission slot stays occupied, then
// asserts a concurrent solve is shed with 429 carrying a Retry-After hint
// and counted, and that the parked solve still completes once released.
func TestSolveShedsWhenOverloaded(t *testing.T) {
	faults := fault.New(1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faults.ArmFunc(fault.PointCancel, func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	srv, s := testServerCfg(t, config{
		maxBody: 1 << 20, maxInflight: 1, faults: faults,
		defaultDeadline: 2500 * time.Millisecond, // Retry-After rounds up to 3
	})

	firstBody := instanceBody(t, 10, 2)
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/solve", "text/plain", firstBody)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-entered // the first solve now holds the only slot, parked in-solver

	resp, err := http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: status %d, want 429", resp.StatusCode)
	}
	// A shed response tells the client when to come back: the configured
	// deadline (how long the slot could stay busy), rounded up to seconds.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\" (2.5s default deadline rounded up)", got)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked solve: status %d, want 200", code)
	}
	if got := s.reg.Server.Shed.Value(); got != 1 {
		t.Fatalf("krspd_shed_total = %d, want 1", got)
	}
	if got := metricValue(t, scrape(t, srv), "krspd_shed_total"); got != 1 {
		t.Fatalf("exposed shed total = %d, want 1", got)
	}
}

// TestSolveDeadlineDegrades exercises the full deadline path: the header is
// parsed and capped, a canceller exists, and the fault-tripped cancellation
// returns a degraded-but-feasible answer with 200, the degraded flag, the
// echoed effective deadline, and a counter tick.
func TestSolveDeadlineDegrades(t *testing.T) {
	faults := fault.New(2)
	faults.Arm(fault.PointCancel, 1.0) // deterministic stand-in for the clock expiring
	srv, _ := testServerCfg(t, config{
		maxBody:     1 << 20,
		maxDeadline: 50 * time.Millisecond,
		faults:      faults,
	})
	// Both headers are way past the cap; the second is past what a
	// Duration holds in milliseconds, too.
	headers := []string{"100000", "10000000000000"}
	for _, h := range headers {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/solve", instanceBody(t, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineMsHeader, h)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out solveResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %s: status %d, want 200 (anytime answers are not errors)", h, resp.StatusCode)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !out.Degraded || !out.Stats.Degraded {
			t.Fatalf("header %s: expected a degraded answer, got %+v", h, out)
		}
		if out.DeadlineMs != 50 {
			t.Fatalf("header %s: deadlineMs = %d, want the 50ms cap", h, out.DeadlineMs)
		}
		if out.Delay > out.Bound || out.Violated {
			t.Fatalf("header %s: degraded answer violates the delay bound: %+v", h, out)
		}
	}
	if got := metricValue(t, scrape(t, srv), "krsp_solve_degraded_total"); got != int64(len(headers)) {
		t.Fatalf("krsp_solve_degraded_total = %d, want %d", got, len(headers))
	}
}

// TestSolveDeadlineHeaderValidation: garbage or non-positive header values
// are a client error, not a silently ignored knob.
func TestSolveDeadlineHeaderValidation(t *testing.T) {
	srv, _ := testServer(t, 1<<20, false)
	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/solve", instanceBody(t, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineMsHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("header %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSolvePanicRecovered: an injected solver panic must become one 500 and
// a krspd_panic_recovered_total tick — and the daemon must keep serving.
func TestSolvePanicRecovered(t *testing.T) {
	faults := fault.New(3)
	faults.ArmPanic(fault.PointCycleSearch, 1.0)
	srv, s := testServerCfg(t, config{maxBody: 1 << 20, faults: faults})
	resp, err := http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500", resp.StatusCode)
	}
	if got := s.reg.Server.PanicsRecovered.Value(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
	// The daemon survives: disarm and solve again on the same server.
	faults.Disarm(fault.PointCycleSearch)
	resp, err = http.Post(srv.URL+"/solve", "text/plain", instanceBody(t, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic solve: status %d, want 200", resp.StatusCode)
	}
	if got := metricValue(t, scrape(t, srv), "krspd_panic_recovered_total"); got != 1 {
		t.Fatalf("exposed panic total = %d, want 1", got)
	}
}

func TestPprofGate(t *testing.T) {
	on, _ := testServer(t, 1<<20, true)
	resp, err := http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d", resp.StatusCode)
	}
	off, _ := testServer(t, 1<<20, false)
	resp, err = http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}
