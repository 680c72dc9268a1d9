GO ?= go

.PHONY: check vet fmt-check lint conc-audit bce-audit build test perf-test race fuzz-smoke bench-smoke bench-large bench bench-guard trace-smoke cluster-smoke clean

# The full CI gate: static checks (vet, gofmt, krsplint, the concurrency
# audit, the BCE ratchet),
# build, race-enabled tests, the nested benchmark module's tests, a short
# fuzz smoke over the robustness harness,
# a one-shot benchmark smoke run (catches benchmarks that panic or regress
# to failure), the N=5k large-tier smoke, the allocation guard on the
# flagship benches, the flight-recorder round trip, and the 3-node cluster
# failover smoke.
check: vet fmt-check lint conc-audit bce-audit build race perf-test fuzz-smoke bench-smoke bench-large bench-guard trace-smoke cluster-smoke

# cmd/krspperf is a nested module (see perf-test), so the root ./... never
# compiles it; vet and build it in place too, so a change that breaks the
# benchmark's use of the solver packages fails the quick gates.
vet:
	$(GO) vet ./...
	cd cmd/krspperf && $(GO) vet ./...

# gofmt cleanliness: fail if any file needs reformatting.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Project-invariant static analysis (internal/lint): the per-package checks
# (determinism, panic-freedom, zero-alloc hot paths, wall-clock bans,
# overflow guards) plus the whole-module ones (//krsp: contract
# verification, metric catalogue, fault seams, stale suppressions). Exits
# nonzero on any unsuppressed diagnostic. Results are cached under
# .lintcache keyed on source hashes — a no-change rerun replays instantly
# and reports fresh vs warm time — and every run leaves a SARIF 2.1.0
# artifact at krsplint.sarif for CI upload.
lint:
	$(GO) run ./cmd/krsplint -cache .lintcache -sarif-out krsplint.sarif ./...

# Concurrency contracts in isolation (DESIGN.md §15): the lock-set checker
# (//krsp:guardedby + //krsp:locked), goroutine-lifecycle verification
# (//krsp:detached) and the atomics-discipline audit over the whole module,
# with their own SARIF artifact. The full `lint` gate runs these too; this
# target gives CI a focused artifact and a fast re-run after touching
# concurrent code.
conc-audit:
	$(GO) run ./cmd/krsplint -analyzers lockcheck,gorolife,atomicmix -sarif-out conc-audit.sarif ./...

# Bounds-check-elimination ratchet: build with -d=ssa/check_bce and fail if
# any //krsp:inbounds kernel carries more compiler bounds checks than the
# committed BCE_BASELINE.json records. After a genuine improvement, tighten
# the ratchet with `go run ./cmd/krsplint -bce -bce-update`.
bce-audit:
	$(GO) run ./cmd/krsplint -bce

# The nested module's ./... is one main package, so its build goes to
# /dev/null rather than leaving a binary in the checkout.
build:
	$(GO) build ./...
	cd cmd/krspperf && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# cmd/krspperf is a nested module (its own go.mod, replacing repro with the
# checkout), so ./... from the root never reaches its tests; run them in
# place, since it imports the solver packages it benchmarks.
perf-test:
	cd cmd/krspperf && $(GO) test ./...

# -count=1 defeats the test cache: the race gate must actually re-execute
# the concurrent suites (goroutine-leak guards, cache churn) every run, not
# replay a cached pass from an earlier non-race-relevant change. krspd's
# body memo is state every /solve handler reaches, so its concurrency test
# runs ten more times.
race:
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=10 -run '^TestMemoConcurrent$$' ./cmd/krspd

# Short coverage-guided fuzz: SolveCtx (random instances, poll strides and
# fault seeds must never panic or violate the delay bound), the instance
# parser against its line-scanner reference (same error text or the same
# instance on every input), the priority queue against its linear-scan
# oracle (same (item, key) from every Pop under the monotone push rule) and
# the lint directive parsers (arbitrary comment text must parse fully or
# error, never half-succeed).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSolveCtx$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReadInstance$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzHeapMatchesSpec$$' -fuzztime 10s ./internal/pq/
	$(GO) test -run '^$$' -fuzz '^FuzzDirectiveParser$$' -fuzztime 5s ./internal/lint/

# -short skips the large tier (bench_large_test.go); bench-large covers it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# One-shot N=5k smoke of the large tier: phase 1 alone plus the end-to-end
# solve. The full sweep (phase 1 alone and the solve, each at
# N=5k/20k/50k) is
#   go test -run '^$$' -bench 'Phase1ClassicN|SolveLargeN' -benchmem .
bench-large:
	$(GO) test -run '^$$' -bench 'Phase1ClassicN5k|SolveLargeN5k' -benchtime 1x .

# Snapshot numbers on disk, highest last (numeric: BENCH_10 sorts after
# BENCH_9).
BENCH_NUMBERS := $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n)
BENCH_LAST := $(lastword $(BENCH_NUMBERS))

# Snapshot every go test benchmark of the root package and cmd/krspd (the
# large tier included). Reports are numbered; each run writes the next free
# BENCH_<n>.json, and the highest-numbered one is the baseline the guard
# compares against.
bench:
	$(GO) run ./cmd/krspbench -out BENCH_$$(( $(or $(BENCH_LAST),0) + 1 )).json

BENCH_BASELINE := $(if $(BENCH_LAST),BENCH_$(BENCH_LAST).json)

# Zero-alloc contracts: core.Solve with Options.Metrics unset must not
# allocate above the newest baseline, SolveCtx with a live Canceller must
# match it, the fingerprint+cache miss path must add nothing on top, phase 1
# and the full solve at N=5k must hold their alloc counts flat, one
# bicameral Find must not allocate more, decoding an N=5k instance must
# not return to per-line allocation, and a krspd /solve cache hit at N=5k
# must not allocate more. (The cache-off miss, SolveHTTPN5k/miss, varies by
# a few allocs/op between runs, so it is recorded but not guarded.)
# -baseline prints the full ns/B/allocs delta table and fails on any
# allocs/op regression, on a B/op rise of more than 5%, on a listed row
# the baseline lacks, or on a listed name that matches no benchmark.
bench-guard:
	$(GO) run ./cmd/krspbench -run SolveN60K3,SolveCtxN60K3,SolveN60K3CacheMiss,Phase1ClassicN5k,SolveLargeN5k,BicameralFind,DecodeN5k,SolveHTTPN5k/hit -baseline $(BENCH_BASELINE)

# Flight-recorder round trip (DESIGN.md §13): generate an instance, solve
# it with the recorder armed (krsp -trace), and render the dump with
# krsptrace as both the human report and the Chrome trace_event export.
# Then trace a scaled solve on an instance whose rounding granularity is
# well above 1, and require the report's result: line to show the cost and
# delay krsp printed, in original weights. Fails when any stage cannot
# parse the previous one's output.
trace-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/krspgen -n 40 -k 3 -slack 1.15 > $$tmp/ins.krsp && \
	$(GO) run ./cmd/krsp -quiet -trace $$tmp/flight.jsonl $$tmp/ins.krsp > /dev/null && \
	$(GO) run ./cmd/krsptrace $$tmp/flight.jsonl > $$tmp/report.txt && \
	$(GO) run ./cmd/krsptrace -chrome $$tmp/chrome.json $$tmp/flight.jsonl && \
	grep -q "phase timeline" $$tmp/report.txt && \
	grep -q "duality-gap convergence" $$tmp/report.txt && \
	$(GO) run ./cmd/krspgen -topo er -n 40 -seed 7 -slack 1.1 -k 2 -maxcost 5000 -maxdelay 5000 > $$tmp/big.krsp && \
	$(GO) run ./cmd/krsp -quiet -algo scaled -eps 0.5 -trace $$tmp/scaled.jsonl $$tmp/big.krsp > $$tmp/scaled.txt && \
	$(GO) run ./cmd/krsptrace $$tmp/scaled.jsonl > $$tmp/scaled-report.txt && \
	printed=$$(grep -o 'cost=[0-9]* delay=[0-9]*' $$tmp/scaled.txt) && \
	traced=$$(sed -n 's/^result: \(cost=[0-9]* delay=[0-9]*\).*/\1/p' $$tmp/scaled-report.txt) && \
	{ [ -n "$$printed" ] && [ "$$printed" = "$$traced" ] || \
	  { echo "trace-smoke: scaled trace reports '$$traced', krsp printed '$$printed'"; false; }; } && \
	echo "trace-smoke: solve -> dump -> krsptrace round trip ok ($$(wc -l < $$tmp/flight.jsonl | tr -d ' ') trace lines; scaled $$traced)"; \
	status=$$?; rm -rf $$tmp; exit $$status

# 3-node cluster failover smoke (DESIGN.md §14): boot three krspd nodes on
# loopback, drive 100 open-loop requests through node 1, SIGTERM node 3
# mid-run, and assert zero non-2xx (failover must not lose requests), at
# least one proxied response (the ring actually sharded), and at least one
# cache hit (the fingerprint cache actually served).
cluster-smoke:
	@tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/krspd ./cmd/krspd && \
	$(GO) build -o $$tmp/krspload ./cmd/krspload && \
	members=127.0.0.1:7141,127.0.0.1:7142,127.0.0.1:7143; \
	for port in 7141 7142 7143; do \
	  $$tmp/krspd -addr 127.0.0.1:$$port -cluster $$members -self 127.0.0.1:$$port \
	    -cache 64 -max-inflight 0 2> $$tmp/krspd-$$port.log & \
	  eval pid$$port=$$!; \
	done; \
	up=0; for i in $$(seq 1 50); do \
	  if curl -sf http://127.0.0.1:7141/healthz > /dev/null 2>&1 && \
	     curl -sf http://127.0.0.1:7142/healthz > /dev/null 2>&1 && \
	     curl -sf http://127.0.0.1:7143/healthz > /dev/null 2>&1; then up=1; break; fi; \
	  sleep 0.1; \
	done; \
	if [ $$up -eq 1 ]; then \
	  $$tmp/krspload -targets http://127.0.0.1:7141 -n 100 -qps 200 -distinct 80 \
	    -kill-after 60 -kill-pid $$pid7143 \
	    -max-non2xx 0 -min-proxied 1 -min-cache-hit 1; status=$$?; \
	else \
	  echo "cluster-smoke: nodes failed to start"; cat $$tmp/krspd-*.log; \
	fi; \
	kill $$pid7141 $$pid7142 $$pid7143 2> /dev/null; wait 2> /dev/null; \
	[ $$status -eq 0 ] && echo "cluster-smoke: 100 requests, mid-run node kill, zero lost ok"; \
	rm -rf $$tmp; exit $$status

clean:
	$(GO) clean ./...
	rm -rf .lintcache krsplint.sarif conc-audit.sarif
