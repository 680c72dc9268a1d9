// Command krspd serves kRSP solving over HTTP — the shape an SDN
// controller would embed (the paper's §1 argues SDN controllers are where
// multipath QoS routing becomes deployable: global topology, central
// compute).
//
//	krspd -addr :8080 [-pprof] [-max-body 8388608] [-max-inflight N]
//	      [-deadline 0] [-max-deadline 60s] [-trace-dir DIR] [-trace-sample N]
//	      [-cluster h1:p,h2:p,... -self h1:p] [-cache N] [-cache-ttl 1m]
//	      [-hedge 0] [-probe-every 2s] [-poll-stride 0]
//
// Endpoints:
//
//	POST /solve         body: instance in the krsp text format;
//	                    query: algo=solve|scaled|phase1 (default solve),
//	                           eps=<float> (scaled only)
//	                    header: X-Krsp-Deadline-Ms overrides -deadline,
//	                            capped by -max-deadline;
//	                            traceparent joins a W3C trace (one is
//	                            minted otherwise; the response echoes it)
//	                    → JSON {requestId, cost, delay, bound, lowerBound,
//	                            exact, paths, degraded, deadlineMs,
//	                            traceId, stats} plus, in cluster mode,
//	                            {cache, stale, collapsed, route,
//	                            degradedRoute} (DESIGN.md §14); a
//	                            Server-Timing header lists the stages
//	                            run (digest, decode, fingerprint, cache,
//	                            proxy, solve)
//	POST /feasible      body: instance → JSON {maxDisjoint, minDelay, ok}
//	GET  /healthz       → 200 "ok"
//	GET  /readyz        → JSON ring membership + peer health (§14)
//	GET  /metrics       → Prometheus text exposition (DESIGN.md §9)
//	GET  /debug/vars    → expvar-compatible JSON (std vars + "krsp")
//	GET  /debug/trace/last → JSONL flight-recorder dump of the last solve
//	GET  /debug/pprof/  → net/http/pprof, only with -pprof
//
// Cluster mode (-cluster + -self, DESIGN.md §14): the members rendezvous-
// hash instance fingerprints to owners; any node accepts any solve and
// proxies non-owned ones to the owner with deadline-budgeted retries,
// optional hedging (-hedge), per-peer circuit breaking with -probe-every
// readmission probing, and degraded local fallback. -cache N enables the
// fingerprint solution cache (singleflight is always on); entries older
// than -cache-ttl serve only as stale fallbacks under deadline pressure.
// It also enables a body memo of the same capacity, which maps each
// validated body to its fingerprint so a repeated body skips decode.
//
// Every solve runs with a flight recorder attached (DESIGN.md §13). The
// dump of the last solve is always available at /debug/trace/last; with
// -trace-dir set, degraded / 503 / panicking solves additionally write
// black-box JSONL dumps named <traceID>.jsonl there (plus every Nth
// ordinary solve with -trace-sample N). Render dumps with cmd/krsptrace.
//
// The server reads bodies through MaxBytesReader (413 beyond -max-body),
// sheds load with 429 past -max-inflight concurrent solves, enforces
// per-request solve deadlines (degraded-but-feasible answers carry
// "degraded": true), converts handler panics to 500s, runs with read/write
// timeouts, logs one structured line per request via log/slog, and shuts
// down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxBody := flag.Int64("max-body", 8<<20, "maximum request body size in bytes")
	maxInflight := flag.Int("max-inflight", 2*runtime.GOMAXPROCS(0),
		"maximum concurrent solve/feasible requests before shedding 429 (0 disables)")
	deadline := flag.Duration("deadline", 0,
		"default per-solve deadline; degraded-but-feasible answers past it (0 disables)")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second,
		"cap on the X-Krsp-Deadline-Ms header deadline (0 = uncapped)")
	traceDir := flag.String("trace-dir", "",
		"directory for flight-recorder JSONL dumps: black boxes (degraded/503/panic) plus sampled solves (empty disables)")
	traceSample := flag.Int("trace-sample", 0,
		"with -trace-dir, also dump every Nth ordinary solve trace (0 = black boxes only)")
	clusterFlag := flag.String("cluster", "",
		"comma-separated member list (host:port,...) enabling sharded cluster mode; must include -self")
	selfFlag := flag.String("self", "",
		"this node's own address, spelled exactly as in -cluster")
	cacheSize := flag.Int("cache", 0,
		"fingerprint solution cache capacity in entries, also the body memo's (0 disables both)")
	cacheTTL := flag.Duration("cache-ttl", time.Minute,
		"cache freshness window; older entries serve only as stale fallbacks under deadline pressure")
	hedge := flag.Duration("hedge", 0,
		"launch a duplicate proxy attempt if the owner has not answered within this (0 disables)")
	probeEvery := flag.Duration("probe-every", 2*time.Second,
		"how often to probe ejected peers for readmission")
	pollEvery := flag.Int("poll-stride", 0,
		"solver cancellation poll stride; smaller notices deadlines sooner (0 = solver default)")
	flag.Parse()

	var peers []string
	if *clusterFlag != "" {
		for _, p := range strings.Split(*clusterFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// The cmd/ edge is the only place the real clock enters the solver
	// stack (krsplint wallclock invariant; see internal/obs/realclock.go).
	srv, err := newServer(obs.New(obs.RealClock{}), logger, config{
		maxBody:         *maxBody,
		pprof:           *pprofFlag,
		maxInflight:     *maxInflight,
		defaultDeadline: *deadline,
		maxDeadline:     *maxDeadline,
		traceDir:        *traceDir,
		traceSample:     *traceSample,
		peers:           peers,
		self:            *selfFlag,
		cacheSize:       *cacheSize,
		cacheTTL:        *cacheTTL,
		hedgeAfter:      *hedge,
		pollEvery:       *pollEvery,
	})
	if err != nil {
		logger.Error("bad configuration", "err", err)
		os.Exit(2)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute, // big solves; must outlive the slowest algo
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The readmission prober is the only background goroutine of cluster
	// mode: everything else happens on request paths.
	if srv.clstr != nil && *probeEvery > 0 {
		go func() {
			tick := time.NewTicker(*probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					srv.probeOnce()
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("krspd listening", "addr", *addr, "pprof", *pprofFlag,
		"maxBody", *maxBody, "maxInflight", *maxInflight,
		"deadline", *deadline, "maxDeadline", *maxDeadline,
		"traceDir", *traceDir, "traceSample", *traceSample,
		"cluster", *clusterFlag, "self", *selfFlag,
		"cache", *cacheSize, "cacheTTL", *cacheTTL, "hedge", *hedge)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		logger.Info("signal received, draining connections")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("bye")
	}
}
