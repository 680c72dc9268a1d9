package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/solvecache"
)

// config bundles the daemon's operational knobs. Tests construct it
// directly; main fills it from flags.
type config struct {
	maxBody int64
	pprof   bool
	// maxInflight bounds concurrently executing solve/feasible requests;
	// excess requests are shed with 429 instead of queued (an SDN controller
	// would rather retry elsewhere than pile up latency). ≤ 0 disables
	// admission control.
	maxInflight int
	// defaultDeadline is applied to every solve without an explicit
	// X-Krsp-Deadline-Ms header; 0 means none.
	defaultDeadline time.Duration
	// maxDeadline caps the per-request header deadline (clients cannot buy
	// unbounded compute); 0 means uncapped.
	maxDeadline time.Duration
	// faults, when non-nil, is threaded into every solve — the chaos/test
	// lever behind the recover middleware and degraded-path tests. Never
	// set in production.
	faults *fault.Registry
	// traceDir, when non-empty, receives JSONL flight-recorder dumps
	// (<traceID>.jsonl): every black-boxed solve (degraded, 503, panic)
	// plus every traceSample-th ordinary one.
	traceDir string
	// traceSample dumps every Nth ordinary solve trace to traceDir; 0
	// writes black-box dumps only.
	traceSample int
	// peers is the full cluster member list (host:port), including this
	// node; empty disables cluster mode (DESIGN.md §14).
	peers []string
	// self is this node's own address exactly as spelled in peers.
	self string
	// cacheSize bounds the fingerprint solution cache; 0 disables caching.
	cacheSize int
	// cacheTTL is the freshness window; older entries are served only as
	// stale fallbacks under deadline pressure. 0 means never stale.
	cacheTTL time.Duration
	// hedgeAfter launches a duplicate proxy attempt when the first has not
	// answered within it; 0 disables hedging.
	hedgeAfter time.Duration
	// proxyAttempts caps tries per proxied solve (0 = default).
	proxyAttempts int
	// backoffBase/backoffMax tune proxy retry backoff (0 = cluster defaults).
	backoffBase, backoffMax time.Duration
	// pollEvery is the solver's cancellation poll stride (core.Options
	// .PollEvery): smaller means deadlines are noticed sooner at a little
	// per-iteration cost. 0 selects the solver default.
	pollEvery int
}

// server carries the daemon's shared state: the metrics registry (also
// handed to every solve as core.Options.Metrics), the structured logger,
// the operational config, the admission semaphore, and the request-id
// source.
type server struct {
	reg *obs.Registry
	// sm is the HTTP metric group, cached off reg once; the group's
	// recording methods are nil-safe, so handlers record unconditionally
	// even on a registry-less server.
	sm    *obs.ServerMetrics
	cm    *obs.ClusterMetrics
	log   *slog.Logger
	cfg   config
	sem   chan struct{}
	reqID atomic.Int64
	// tracer owns the per-request flight recorders, trace dumps, and the
	// /debug/trace/last buffer (trace.go).
	tracer *tracer
	// cache and group are the solve-dedup layer: cache replays identical
	// solves across time, group collapses them across concurrency. Both are
	// nil-safe no-ops when disabled.
	cache *solvecache.Cache[cachedSolution]
	group *solvecache.Group[cachedSolution]
	// memo maps a request body this node has decoded and validated to its
	// fingerprint, keyed by bodyKey, so a repeated body skips decode. It
	// takes the cache's capacity, never goes stale, and is nil (no digest
	// computed) when the cache is off.
	memo *solvecache.Cache[memoEntry]
	// clstr is the sharded-mode state (cluster.go); nil on single nodes.
	clstr *clusterNode
}

// newServer wires the handler state. Tests pass a ManualClock-backed
// registry and a discard logger; main passes RealClock and stderr. The
// only error source is an invalid cluster membership.
func newServer(reg *obs.Registry, logger *slog.Logger, cfg config) (*server, error) {
	s := &server{reg: reg, sm: reg.ServerMetrics(), cm: reg.ClusterMetrics(), log: logger, cfg: cfg}
	if cfg.maxInflight > 0 {
		s.sem = make(chan struct{}, cfg.maxInflight)
	}
	s.tracer = newTracer(registryClock{reg}, cfg.traceDir, cfg.traceSample)
	s.cache = solvecache.NewCache[cachedSolution](cfg.cacheSize, cfg.cacheTTL.Nanoseconds())
	s.memo = solvecache.NewCache[memoEntry](cfg.cacheSize, 0)
	s.group = solvecache.NewGroup[cachedSolution]()
	if len(cfg.peers) > 0 {
		n, err := newClusterNode(cfg)
		if err != nil {
			return nil, err
		}
		s.clstr = n
	}
	return s, nil
}

// handler is the daemon's root handler: the route table wrapped in the
// recover middleware, so a panicking solve turns into one 500 plus a
// krspd_panic_recovered_total tick instead of a dead process.
func (s *server) handler() http.Handler {
	return s.recoverWrap(s.mux())
}

// recoverWrap converts handler panics to 500s. Recovery is per-request:
// net/http would also swallow the panic, but it would tear down the
// connection and leave no metric behind.
func (s *server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.sm.RecordPanic()
				s.log.Error("panic recovered", "path", r.URL.Path, "panic", fmt.Sprint(p))
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admit reserves an admission slot, answering 429 when the daemon is at
// maxInflight. Shed responses carry a Retry-After hint sized to the solve
// deadline — the time by which the currently admitted work should have
// drained. The returned release func is a no-op when admission control is
// disabled.
func (s *server) admit(w http.ResponseWriter, fail func(string, int)) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.sm.RecordShed()
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		fail("overloaded: max inflight solves reached, retry later", http.StatusTooManyRequests)
		return nil, false
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from the configured
// deadline (default, falling back to the cap), rounded up, at least 1.
func (s *server) retryAfterSeconds() int64 {
	d := s.cfg.defaultDeadline
	if d <= 0 {
		d = s.cfg.maxDeadline
	}
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// deadlineMsHeader is the per-request deadline override, in milliseconds.
const deadlineMsHeader = "X-Krsp-Deadline-Ms"

// solveDeadline resolves the effective deadline for one request: the
// header when present (rejecting garbage), else the configured default,
// both capped by maxDeadline. 0 means no deadline.
func (s *server) solveDeadline(r *http.Request) (time.Duration, error) {
	d := s.cfg.defaultDeadline
	if h := r.Header.Get(deadlineMsHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("bad %s: want a positive integer, got %q", deadlineMsHeader, h)
		}
		// A header past what a Duration holds saturates instead of
		// wrapping negative, so the cap below applies to it as to any.
		d = time.Duration(math.MaxInt64)
		if ms < int64(math.MaxInt64/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if s.cfg.maxDeadline > 0 && (d == 0 || d > s.cfg.maxDeadline) {
		d = s.cfg.maxDeadline
	}
	return d, nil
}

// mux builds the route table.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/feasible", s.handleFeasible)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/trace/last", s.handleTraceLast)
	if s.cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// solveResponse is the JSON result of /solve.
type solveResponse struct {
	RequestID  int64     `json:"requestId"`
	Cost       int64     `json:"cost"`
	Delay      int64     `json:"delay"`
	Bound      int64     `json:"bound"`
	LowerBound int64     `json:"lowerBound"`
	Exact      bool      `json:"exact"`
	Paths      [][]int32 `json:"paths"` // vertex sequences
	Violated   bool      `json:"boundViolated"`
	// Degraded mirrors Stats.Degraded at the top level: the deadline hit and
	// this is the best feasible intermediate, still within the delay bound.
	Degraded bool `json:"degraded"`
	// DeadlineMs echoes the effective deadline applied to the solve
	// (header, default, and cap resolved); 0 means none.
	DeadlineMs int64 `json:"deadlineMs"`
	// TraceID identifies this solve's flight-recorder trace: the trace-id
	// from the request's traceparent header when one was sent, else minted
	// here. The response traceparent header carries the same ID.
	TraceID string     `json:"traceId"`
	Stats   core.Stats `json:"stats"`
	// Cache classifies the fingerprint-cache lookup ("hit", "miss",
	// "stale"); empty when caching is disabled.
	Cache string `json:"cache,omitempty"`
	// Stale marks an answer served from a lapsed cache entry under deadline
	// pressure — correct for the instance, possibly not freshly computed.
	Stale bool `json:"stale,omitempty"`
	// Collapsed marks an answer taken from an identical in-flight solve.
	Collapsed bool `json:"collapsed,omitempty"`
	// Route reports cluster routing: "local", "proxy:<peer>", or
	// "degraded-local"; empty on single-node daemons.
	Route string `json:"route,omitempty"`
	// DegradedRoute marks a solve computed off-owner because the owning
	// peer was unreachable (DESIGN.md §14 failover).
	DegradedRoute bool `json:"degradedRoute,omitempty"`
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	id := s.reqID.Add(1)
	start := s.reg.Now()
	status := http.StatusOK
	outcome := "ok"
	var n, m, k int
	algo := r.URL.Query().Get("algo")
	if algo == "" {
		algo = "solve"
	}
	// Trace identity: adopt the caller's W3C trace ID when the traceparent
	// header parses, else mint one. Either way the response carries a
	// traceparent with our own span ID so downstream hops keep correlating.
	traceID, hadParent := parseTraceparent(r.Header.Get(traceparentHeader))
	if !hadParent {
		traceID = newTraceID()
	}
	w.Header().Set(traceparentHeader, "00-"+traceID+"-"+newSpanID()+"-01")
	var dumpPath string
	defer func() {
		dur := s.reg.Now() - start
		s.sm.ObserveRequest(dur)
		s.log.Info("solve", "id", id, "trace", traceID, "algo", algo, "n", n, "m", m, "k", k,
			"outcome", outcome, "status", status, "durMs", float64(dur)/1e6, "dump", dumpPath)
	}()
	fail := func(msg string, code int) {
		status, outcome = code, msg
		s.sm.RecordError()
		http.Error(w, msg, code)
	}
	if r.Method != http.MethodPost {
		fail("POST an instance in krsp text format", http.StatusMethodNotAllowed)
		return
	}
	release, admitted := s.admit(w, fail)
	if !admitted {
		return
	}
	defer release()
	s.sm.RecordAccepted(false)
	s.sm.AddInflight(1)
	defer s.sm.AddInflight(-1)
	deadline, derr := s.solveDeadline(r)
	if derr != nil {
		fail(derr.Error(), http.StatusBadRequest)
		return
	}
	// The body is buffered (not streamed into the parser) because cluster
	// mode may need to replay the same bytes at the owning peer.
	raw, ok := s.readBody(w, r, fail)
	if !ok {
		return
	}
	epsQ := r.URL.Query().Get("eps")
	timing := serverTiming{reg: s.reg}
	reply := func(resp solveResponse) {
		w.Header().Set("Server-Timing", string(timing.hdr))
		s.writeJSON(w, resp)
	}
	// A body this node has already decoded maps through the memo straight
	// to its fingerprint. It is decoded again only to solve it here.
	var key solvecache.FP
	var req memoEntry
	var memoHit int64 // the cache-hit event's memo argument
	if s.memo != nil {
		t0 := s.reg.Now()
		key = bodyKey(algo, epsQ, raw)
		if e, st, _ := s.memo.Get(key, t0); st != solvecache.Miss {
			req, memoHit = e, 1
		}
		timing.stage("digest", "", t0)
	}
	var ins graph.Instance
	decode := func() bool {
		t0 := s.reg.Now()
		var err error
		ins, req.eps, err = decodeSolve(raw, algo, epsQ)
		timing.stage("decode", "", t0)
		if err != nil {
			fail(err.Error(), http.StatusBadRequest)
			return false
		}
		return true
	}
	if memoHit == 0 {
		if !decode() {
			return
		}
		t0 := s.reg.Now()
		req.fp = solvecache.Fingerprint(ins, algo, req.eps)
		timing.stage("fingerprint", "", t0)
		req.n, req.m, req.k = ins.G.NumNodes(), ins.G.NumEdges(), ins.K
		s.memo.Put(key, req, s.reg.Now())
	}
	fp, eps := req.fp, req.eps
	n, m, k = req.n, req.m, req.k
	ctx := r.Context()
	if deadline > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, deadline)
		defer cancelCtx()
	}
	// Arm a pooled flight recorder for the solve. finishTrace snapshots it
	// (always into the /debug/trace/last buffer, to disk when black-boxed or
	// sampled) and recycles it; the deferred call is the panic path — it
	// preserves the black box before recoverWrap converts the panic to 500.
	flight := s.tracer.acquire()
	finished := false
	finishTrace := func(blackBox bool) {
		finished = true
		dumpPath = s.tracer.finish(flight, traceID, blackBox)
	}
	defer func() {
		if !finished {
			finishTrace(true)
		}
	}()
	cacheLabel := ""
	if s.cache != nil {
		t0 := s.reg.Now()
		cached, st, age := s.cache.Get(fp, t0)
		timing.stage("cache", st.String(), t0)
		s.cm.RecordCacheLookup(st == solvecache.Fresh)
		if st == solvecache.Fresh {
			flight.Record(rec.KindCacheHit, int64(st), age, memoHit, 0)
			finishTrace(false)
			outcome = "cache-hit"
			resp := solutionResponse(id, cached, deadline, traceID)
			resp.Cache = "hit"
			reply(resp)
			return
		}
		cacheLabel = "miss"
	}
	// Cluster routing: fresh, first-hop misses go to the ring owner. A
	// proxied request (hops ≥ 1) is always solved locally — the loop guard.
	degradedRoute := false
	route := ""
	if s.clstr != nil {
		route = "local"
		if owner, isSelf := s.clstr.table.Owner(fp.Key64()); !isSelf && r.Header.Get(hopsHeader) == "" {
			t0 := s.reg.Now()
			resp, attempts, proxied := s.proxySolve(ctx, owner, raw, algo, epsQ, deadline, traceID, flight)
			timing.stage("proxy", "", t0)
			if proxied {
				resp.RequestID = id
				resp.TraceID = traceID
				resp.Route = "proxy:" + owner
				if !resp.Degraded && !resp.Stale {
					s.cache.Put(fp, solutionOf(*resp), s.reg.Now())
				}
				finishTrace(false)
				outcome = "proxied"
				reply(*resp)
				return
			} else {
				// Owner unreachable after budgeted retries: solve here,
				// off-route, rather than fail the request.
				degradedRoute = true
				route = "degraded-local"
				s.cm.RecordDegradedRoute()
				flight.Record(rec.KindDegradedRoute, int64(attempts), 0, 0, 0)
			}
		}
	}
	// A memo hit decodes only now that it must solve here. The memo holds
	// only bodies that decoded, so this cannot fail.
	if memoHit == 1 && !decode() {
		finishTrace(false)
		return
	}
	opt := core.Options{Metrics: s.reg, Faults: s.cfg.faults, Recorder: flight, PollEvery: s.cfg.pollEvery}
	runSolve := func() (cachedSolution, error) {
		var res core.Result
		var serr error
		switch algo {
		case "solve":
			res, serr = core.SolveCtx(ctx, ins, opt)
		case "phase1":
			p1 := opt
			p1.Phase1Only = true
			res, serr = core.SolveCtx(ctx, ins, p1)
		case "scaled":
			res, serr = core.SolveScaledCtx(ctx, ins, eps, eps, opt)
		}
		if serr != nil {
			return cachedSolution{}, serr
		}
		return newCachedSolution(res, ins), nil
	}
	t0 := s.reg.Now()
	sol, err, collapsed := s.group.Do(fp, runSolve)
	timing.stage("solve", "", t0)
	if collapsed {
		s.cm.RecordCollapsed()
		flight.Record(rec.KindSingleflight, 0, 0, 0, 0)
	}
	if err != nil {
		// Deadline pressure (no feasible flow in time) or a dead leader:
		// a stale cache entry beats a 503 — the instance hasn't changed,
		// only our time to recompute it has run out.
		if errors.Is(err, core.ErrNoProgress) || errors.Is(err, solvecache.ErrLeaderFailed) {
			if cached, st, age := s.cache.Get(fp, s.reg.Now()); st != solvecache.Miss {
				s.cm.RecordStaleServed()
				flight.Record(rec.KindCacheHit, int64(st), age, memoHit, 0)
				finishTrace(true)
				outcome = "stale-served"
				resp := solutionResponse(id, cached, deadline, traceID)
				resp.Cache = st.String()
				resp.Stale = true
				resp.Route = route
				resp.DegradedRoute = degradedRoute
				reply(resp)
				return
			}
		}
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrNoKPaths) || errors.Is(err, core.ErrDelayInfeasible) ||
			errors.Is(err, core.ErrWeightsTooLarge):
			code = http.StatusUnprocessableEntity
		case errors.Is(err, core.ErrNoProgress):
			// The deadline expired before any feasible k-flow existed; the
			// client can retry with a bigger budget.
			code = http.StatusServiceUnavailable
		}
		// 5xx solves black-box their trace; client errors (422) do not.
		finishTrace(code >= http.StatusInternalServerError)
		fail(err.Error(), code)
		return
	}
	// A degraded solve black-boxes its trace even though it returned 200 —
	// the whole point of the recorder is explaining what the deadline cut.
	finishTrace(sol.Degraded)
	if !collapsed && !sol.Degraded {
		// Only complete answers are worth replaying; a degraded one would
		// freeze a deadline artifact into the cache.
		s.cache.Put(fp, sol, s.reg.Now())
	}
	resp := solutionResponse(id, sol, deadline, traceID)
	resp.Cache = cacheLabel
	resp.Collapsed = collapsed
	resp.Route = route
	resp.DegradedRoute = degradedRoute
	reply(resp)
}

// memoEntry is what one validated /solve body decodes to: the fingerprint
// and ε its answer is keyed by, and the instance shape for the request log.
type memoEntry struct {
	fp      solvecache.FP
	eps     float64
	n, m, k int
}

// bodyKey is the memo key of a /solve request: SHA-256 over the normalized
// algo, the raw eps query and the raw body, each string length-prefixed so
// that no two requests feed the hash the same bytes, truncated to an FP. A
// cryptographic hash, because a collision would hand one instance's cached
// answer to a different body.
func bodyKey(algo, epsQ string, body []byte) solvecache.FP {
	h := sha256.New()
	var buf [sha256.Size]byte
	for _, q := range [2]string{algo, epsQ} {
		h.Write(binary.BigEndian.AppendUint64(buf[:0], uint64(len(q))))
		h.Write([]byte(q))
	}
	h.Write(body)
	sum := h.Sum(buf[:0])
	return solvecache.FP{Hi: binary.BigEndian.Uint64(sum[:8]), Lo: binary.BigEndian.Uint64(sum[8:16])}
}

// decodeSolve parses and validates a /solve body and checks algo and eps,
// which are part of the cache identity. An error is the 400 message.
func decodeSolve(raw []byte, algo, epsQ string) (graph.Instance, float64, error) {
	ins, err := graph.ReadInstance(bytes.NewReader(raw))
	if err != nil {
		return graph.Instance{}, 0, errors.New("bad instance: " + err.Error())
	}
	if err := ins.Validate(); err != nil {
		return graph.Instance{}, 0, err
	}
	var eps float64
	switch algo {
	case "solve", "phase1":
	case "scaled":
		eps = 0.25
		if epsQ != "" {
			eps, err = strconv.ParseFloat(epsQ, 64)
			if err != nil || !(eps > 0) || math.IsInf(eps, 1) {
				return graph.Instance{}, 0, errors.New("bad eps")
			}
		}
	default:
		return graph.Instance{}, 0, errors.New("unknown algo " + algo)
	}
	return ins, eps, nil
}

// serverTiming builds a /solve response's Server-Timing header
// (https://www.w3.org/TR/server-timing/): one entry per stage the request
// ran, in milliseconds on the registry clock.
type serverTiming struct {
	reg *obs.Registry
	hdr []byte
}

// stage appends the entry for a stage that began at start and ends now.
func (t *serverTiming) stage(name, desc string, start int64) {
	if len(t.hdr) > 0 {
		t.hdr = append(t.hdr, ", "...)
	}
	t.hdr = append(t.hdr, name...)
	if desc != "" {
		t.hdr = append(t.hdr, `;desc="`...)
		t.hdr = append(t.hdr, desc...)
		t.hdr = append(t.hdr, '"')
	}
	t.hdr = append(t.hdr, ";dur="...)
	t.hdr = strconv.AppendFloat(t.hdr, float64(t.reg.Now()-start)/1e6, 'f', 3, 64)
}

// readBody reads the size-capped request body whole, mapping an over-limit
// body to 413. A declared length past the limit is refused before anything
// is allocated for it; otherwise the buffer is sized once from
// Content-Length, and a body of unknown length grows it as it arrives.
func (s *server) readBody(w http.ResponseWriter, r *http.Request, fail func(string, int)) ([]byte, bool) {
	if r.ContentLength > s.cfg.maxBody {
		fail(fmt.Sprintf("body exceeds %d bytes", s.cfg.maxBody), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // MinRead: room for the read that sees EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.maxBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		} else {
			fail("read body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *server) handleFeasible(w http.ResponseWriter, r *http.Request) {
	id := s.reqID.Add(1)
	start := s.reg.Now()
	status := http.StatusOK
	outcome := "ok"
	defer func() {
		dur := s.reg.Now() - start
		s.sm.ObserveRequest(dur)
		s.log.Info("feasible", "id", id, "outcome", outcome, "status", status,
			"durMs", float64(dur)/1e6)
	}()
	fail := func(msg string, code int) {
		status, outcome = code, msg
		s.sm.RecordError()
		http.Error(w, msg, code)
	}
	if r.Method != http.MethodPost {
		fail("POST an instance in krsp text format", http.StatusMethodNotAllowed)
		return
	}
	release, admitted := s.admit(w, fail)
	if !admitted {
		return
	}
	defer release()
	s.sm.RecordAccepted(true)
	s.sm.AddInflight(1)
	defer s.sm.AddInflight(-1)
	raw, ok := s.readBody(w, r, fail)
	if !ok {
		return
	}
	ins, err := graph.ReadInstance(bytes.NewReader(raw))
	if err != nil {
		fail("bad instance: "+err.Error(), http.StatusBadRequest)
		return
	}
	feas, err := core.CheckFeasible(ins)
	if err != nil {
		fail(err.Error(), http.StatusBadRequest)
		return
	}
	s.writeJSON(w, map[string]any{
		"maxDisjoint": feas.MaxDisjoint,
		"minDelay":    feas.MinDelay,
		"ok":          feas.OK,
	})
}

// handleTraceLast serves the most recent solve's flight-recorder dump as
// JSONL — the zero-setup debugging path: reproduce the bad solve, then GET
// this endpoint and pipe it into krsptrace.
func (s *server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	dump, traceID := s.tracer.lastTrace()
	if len(dump) == 0 {
		http.Error(w, "no solve traced yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Krsp-Trace-Id", traceID)
	w.Write(dump)
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Warn("metrics write", "err", err)
	}
}

// handleVars serves an expvar-compatible JSON document: the process-global
// expvar set (cmdline, memstats) plus this server's registry snapshot
// under "krsp". The registry is NOT expvar.Publish-ed — Publish panics on
// duplicate names, which breaks multi-server tests and any embedder
// running two daemons in one process.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if snap, err := json.Marshal(s.reg.Snapshot()); err == nil {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: %s", "krsp", snap)
	}
	fmt.Fprintf(w, "\n}\n")
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; best effort log.
		s.log.Warn("encode response", "err", err)
	}
}
