// Partition-chaos tests for cluster mode: three in-process krspd nodes on
// real loopback listeners, with deterministic fault seams (PointProxyDial,
// PointProxyRead, PointCancel), manual clocks, and killable/restartable
// listeners. Every scenario the DESIGN.md §14 failover state machine
// promises is driven here: proxying with bit-identical answers, retry with
// backoff, hedging, ejection on node death with zero lost requests,
// cooldown-gated readmission, singleflight collapse, and stale serving
// under deadline pressure.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solvecache"
)

// cnode is one in-process cluster member.
type cnode struct {
	srv    *server
	hs     *http.Server
	addr   string
	clock  *obs.ManualClock
	faults *fault.Registry
}

func (n *cnode) url() string { return "http://" + n.addr }

// kill closes the node's listener and connections — the "node died" lever.
func (n *cnode) kill(t *testing.T) {
	t.Helper()
	if err := n.hs.Close(); err != nil {
		t.Fatalf("kill %s: %v", n.addr, err)
	}
}

// restart rebinds the node's address with a fresh server (a restarted
// process has empty caches and a clean member table).
func (n *cnode) restart(t *testing.T, peers []string) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.clock = &obs.ManualClock{}
	n.faults = fault.New(int64(len(n.addr)))
	srv, err := newServer(obs.New(n.clock), discardLogger(), clusterCfg(peers, n.addr, n.faults))
	if err != nil {
		t.Fatal(err)
	}
	n.srv = srv
	n.srv.clstr.sleep = func(time.Duration) {}
	n.hs = &http.Server{Handler: srv.handler()}
	go n.hs.Serve(ln)
	t.Cleanup(func() { n.hs.Close() })
}

// clusterCfg is the common node config: caching on, trivial backoff so
// retries don't slow the suite down.
func clusterCfg(peers []string, self string, faults *fault.Registry) config {
	return config{
		maxBody:     8 << 20,
		peers:       peers,
		self:        self,
		cacheSize:   64,
		cacheTTL:    time.Hour,
		faults:      faults,
		backoffBase: time.Nanosecond,
		backoffMax:  time.Nanosecond,
	}
}

// startCluster boots n nodes on loopback and returns them with their
// shared member list. Tweaks run before each node starts serving, so
// mutations of unsynchronized fields (hedge timer hooks) are ordered
// before any handler goroutine under the race detector.
func startCluster(t *testing.T, n int, tweaks ...func(i int, node *cnode)) ([]*cnode, []string) {
	t.Helper()
	guardGoroutines(t)
	nodes := make([]*cnode, n)
	peers := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	for i := range nodes {
		clock := &obs.ManualClock{}
		faults := fault.New(int64(i + 1))
		srv, err := newServer(obs.New(clock), discardLogger(), clusterCfg(peers, peers[i], faults))
		if err != nil {
			t.Fatal(err)
		}
		srv.clstr.sleep = func(time.Duration) {}
		nodes[i] = &cnode{srv: srv, addr: peers[i], clock: clock, faults: faults}
		for _, tweak := range tweaks {
			tweak(i, nodes[i])
		}
		nodes[i].hs = &http.Server{Handler: srv.handler()}
		go nodes[i].hs.Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.hs.Close()
		}
	})
	return nodes, peers
}

// testInstance is the 4-node instance of instanceBody as a value; distinct
// bounds give distinct fingerprints (hence distinct ring owners).
func testInstance(bound int64, k int) graph.Instance {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 3, 5)
	return graph.Instance{G: g, S: 0, T: 3, K: k, Bound: bound}
}

func instancePayload(t *testing.T, ins graph.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundOwnedBy scans delay bounds upward from min until the instance's
// fingerprint lands on the wanted owner in from's ring. Bounds ≥ 8 keep
// the instance feasible for k=2 (two disjoint paths of total delay 7
// exist).
func boundOwnedBy(t *testing.T, from *cnode, want string, min int64) int64 {
	t.Helper()
	for b := min; b < min+400; b++ {
		fp := solvecache.Fingerprint(testInstance(b, 2), "solve", 0)
		if owner, _ := from.srv.clstr.table.Owner(fp.Key64()); owner == want {
			return b
		}
	}
	t.Fatalf("no bound in [%d,%d) hashes to %s", min, min+400, want)
	return 0
}

// postSolve sends one solve and decodes the response.
func postSolve(t *testing.T, url string, body []byte, hdr map[string]string) (solveResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out solveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestClusterProxyBitIdentical: the same instance posted to every node
// yields byte-identical solutions — proxied answers ARE the owner's
// answers, and the degraded-local path solves the very same deterministic
// problem.
func TestClusterProxyBitIdentical(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	ins := testInstance(10, 2)
	body := instancePayload(t, ins)
	want, err := core.Solve(ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proxied := 0
	for i, n := range nodes {
		out, code := postSolve(t, n.url(), body, nil)
		if code != http.StatusOK {
			t.Fatalf("node %d: status %d", i, code)
		}
		if out.Cost != want.Cost || out.Delay != want.Delay {
			t.Fatalf("node %d: cost/delay %d/%d, want %d/%d", i, out.Cost, out.Delay, want.Cost, want.Delay)
		}
		direct := newCachedSolution(want, ins)
		if fmt.Sprint(out.Paths) != fmt.Sprint(direct.Paths) {
			t.Fatalf("node %d: paths %v, want %v", i, out.Paths, direct.Paths)
		}
		if strings.HasPrefix(out.Route, "proxy:") {
			proxied++
		}
	}
	if proxied != 2 {
		t.Fatalf("proxied answers = %d of 3, want exactly 2 (one owner)", proxied)
	}
	var total int64
	for _, n := range nodes {
		total += n.srv.reg.Cluster.ProxyRequests.Value()
	}
	if total != 2 {
		t.Fatalf("krsp_proxy_requests_total across nodes = %d, want 2", total)
	}
}

// TestClusterCacheHitFast: repeat solves of a cached fingerprint are
// answered from memory — flagged "hit", counted, and no solve runs. The
// sub-millisecond bound holds only without -race, whose instrumentation
// puts a hit at 1.0–1.2 ms on a 2-CPU machine.
func TestClusterCacheHitFast(t *testing.T) {
	srv, s := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour})
	body := instancePayload(t, testInstance(10, 2))
	out, code := postSolve(t, srv.URL, body, nil)
	if code != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("first solve: status %d cache %q, want 200/miss", code, out.Cache)
	}
	best := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		out, code = postSolve(t, srv.URL, body, nil)
		if d := time.Since(start); d < best {
			best = d
		}
		if code != http.StatusOK || out.Cache != "hit" {
			t.Fatalf("repeat %d: status %d cache %q, want 200/hit", i, code, out.Cache)
		}
	}
	if !raceEnabled && best >= time.Millisecond {
		t.Fatalf("best cache-hit latency %v, want < 1ms", best)
	}
	if got := s.reg.Cluster.CacheHits.Value(); got != 20 {
		t.Fatalf("krsp_cache_hits_total = %d, want 20", got)
	}
	if got := s.reg.Cluster.CacheMisses.Value(); got != 1 {
		t.Fatalf("krsp_cache_misses_total = %d, want 1", got)
	}
	if got := s.reg.Solver.Solves.Value(); got != 1 {
		t.Fatalf("krsp_solves_total = %d, want 1 (hits must not solve)", got)
	}
}

// TestClusterNodeDeathFailover is the headline chaos scenario: kill a
// node mid-workload and prove zero lost requests (every request still
// answers 2xx), circuit-breaker ejection, remapped ownership, and exact
// readmission after restart + probe.
func TestClusterNodeDeathFailover(t *testing.T) {
	nodes, peers := startCluster(t, 3)
	entry, victim := nodes[0], nodes[2]

	// Warm-up traffic through the entry node, including solves owned by
	// the soon-to-die victim.
	preBound := boundOwnedBy(t, entry, victim.addr, 10)
	out, code := postSolve(t, entry.url(), instancePayload(t, testInstance(preBound, 2)), nil)
	if code != http.StatusOK || out.Route != "proxy:"+victim.addr {
		t.Fatalf("pre-kill proxied solve: status %d route %q", code, out.Route)
	}

	victim.kill(t)

	// Every request keeps answering 2xx. The first victim-owned solve
	// burns the dial retries, ejects the peer, and is solved locally.
	// Start past preBound: the pre-kill bound is cached, a fresh solve is
	// needed to exercise the dial-retry-eject path.
	killBound := boundOwnedBy(t, entry, victim.addr, preBound+1)
	out, code = postSolve(t, entry.url(), instancePayload(t, testInstance(killBound, 2)), nil)
	if code != http.StatusOK {
		t.Fatalf("post-kill solve: status %d, want 200 (zero lost requests)", code)
	}
	if !out.DegradedRoute || out.Route != "degraded-local" {
		t.Fatalf("post-kill solve: degradedRoute=%v route=%q", out.DegradedRoute, out.Route)
	}
	if got := entry.srv.reg.Cluster.PeerEjected.Value(); got != 1 {
		t.Fatalf("krsp_peer_ejected_total = %d, want 1", got)
	}
	if got := entry.srv.reg.Cluster.ProxyRetries.Value(); got < 2 {
		t.Fatalf("krsp_proxy_retries_total = %d, want ≥ 2", got)
	}
	if h := entry.srv.clstr.table.Health(victim.addr); fmt.Sprint(h) != "ejected" {
		t.Fatalf("victim health = %v, want ejected", h)
	}

	// With the victim ejected, its keys remap and solves flow on without
	// burning retries: no further ejections, all 2xx.
	for b := int64(50); b < 60; b++ {
		if _, code := postSolve(t, entry.url(), instancePayload(t, testInstance(b, 2)), nil); code != http.StatusOK {
			t.Fatalf("bound %d: status %d, want 200", b, code)
		}
	}
	if got := entry.srv.reg.Cluster.PeerEjected.Value(); got != 1 {
		t.Fatalf("ejections after remap = %d, want still 1", got)
	}

	// Restart the victim, lapse the cooldown on the entry node's manual
	// clock, probe, and verify exact readmission: the pre-kill bound routes
	// to the victim again.
	victim.restart(t, peers)
	entry.clock.Advance(3_000_000_000)
	entry.srv.probeOnce()
	if got := entry.srv.reg.Cluster.PeerReadmitted.Value(); got != 1 {
		t.Fatalf("krsp_peer_readmitted_total = %d, want 1", got)
	}
	fp := solvecache.Fingerprint(testInstance(killBound, 2), "solve", 0)
	if owner, _ := entry.srv.clstr.table.Owner(fp.Key64()); owner != victim.addr {
		t.Fatalf("post-readmit owner = %q, want %q restored", owner, victim.addr)
	}
	out, code = postSolve(t, entry.url(), instancePayload(t, testInstance(int64(399), 2)), nil)
	if code != http.StatusOK {
		t.Fatalf("post-readmit solve: status %d", code)
	}
}

// TestClusterRetryBackoff: transient dial failures are retried within the
// deadline budget and the proxy still lands — the seam armed through
// PointProxyDial.
func TestClusterRetryBackoff(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	entry := nodes[0]
	peer := nodes[1]
	bound := boundOwnedBy(t, entry, peer.addr, 10)

	var calls atomic.Int64
	entry.faults.ArmFunc(fault.PointProxyDial, func() error {
		if calls.Add(1) <= 2 {
			return fault.ErrInjected
		}
		return nil
	})
	out, code := postSolve(t, entry.url(), instancePayload(t, testInstance(bound, 2)), nil)
	if code != http.StatusOK || out.Route != "proxy:"+peer.addr {
		t.Fatalf("status %d route %q, want 200 proxied", code, out.Route)
	}
	if got := entry.srv.reg.Cluster.ProxyRetries.Value(); got != 2 {
		t.Fatalf("krsp_proxy_retries_total = %d, want 2", got)
	}
	if got := entry.faults.Trips(fault.PointProxyDial); got != 3 {
		t.Fatalf("proxy-dial trips = %d, want 3", got)
	}
	// The eventual success reset the failure streak.
	if h := entry.srv.clstr.table.Health(peer.addr); fmt.Sprint(h) != "up" {
		t.Fatalf("peer health after recovery = %v, want up", h)
	}
}

// TestClusterProxyReadFault: a peer dying mid-response (PointProxyRead)
// exhausts retries and falls back to the degraded local solve — the answer
// is still correct and still 200.
func TestClusterProxyReadFault(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	entry := nodes[0]
	peer := nodes[1]
	bound := boundOwnedBy(t, entry, peer.addr, 10)
	entry.faults.Arm(fault.PointProxyRead, 1.0)

	ins := testInstance(bound, 2)
	want, err := core.Solve(ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, code := postSolve(t, entry.url(), instancePayload(t, ins), nil)
	if code != http.StatusOK || !out.DegradedRoute {
		t.Fatalf("status %d degradedRoute %v, want 200/true", code, out.DegradedRoute)
	}
	if out.Cost != want.Cost || out.Delay != want.Delay {
		t.Fatalf("degraded-route answer %d/%d, want %d/%d", out.Cost, out.Delay, want.Cost, want.Delay)
	}
	if got := entry.srv.reg.Cluster.DegradedRoute.Value(); got != 1 {
		t.Fatalf("krsp_degraded_route_total = %d, want 1", got)
	}
	if got := entry.faults.Trips(fault.PointProxyRead); got != 3 {
		t.Fatalf("proxy-read trips = %d, want 3 (one per attempt)", got)
	}
}

// TestClusterHedge: when the first proxy attempt hangs, the hedge timer
// launches a duplicate and the request completes from the duplicate — the
// stuck attempt never blocks the caller.
func TestClusterHedge(t *testing.T) {
	// The entry node's hedge timer fires immediately (stubbed before the
	// node starts serving, so the mutation is ordered before every handler
	// goroutine).
	nodes, _ := startCluster(t, 3, func(i int, n *cnode) {
		if i != 0 {
			return
		}
		n.srv.clstr.hedgeAfter = time.Millisecond
		n.srv.clstr.after = func(time.Duration) <-chan time.Time {
			c := make(chan time.Time, 1)
			c <- time.Time{}
			return c
		}
	})
	entry := nodes[0]
	peer := nodes[1]
	bound := boundOwnedBy(t, entry, peer.addr, 10)

	// The first dial parks until released, so the duplicate attempt wins
	// the race deterministically.
	release := make(chan struct{})
	var firstCall atomic.Bool
	entry.faults.ArmFunc(fault.PointProxyDial, func() error {
		if firstCall.CompareAndSwap(false, true) {
			<-release
		}
		return nil
	})
	defer close(release)
	out, code := postSolve(t, entry.url(), instancePayload(t, testInstance(bound, 2)), nil)
	if code != http.StatusOK || out.Route != "proxy:"+peer.addr {
		t.Fatalf("status %d route %q, want 200 proxied via hedge", code, out.Route)
	}
	if got := entry.srv.reg.Cluster.ProxyHedged.Value(); got != 1 {
		t.Fatalf("krsp_proxy_hedged_total = %d, want 1", got)
	}
}

// TestClusterHopsGuard: a request already carrying the proxy hop header is
// solved locally even by a non-owner — proxy loops are impossible.
func TestClusterHopsGuard(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	entry := nodes[0]
	bound := boundOwnedBy(t, entry, nodes[1].addr, 10)
	out, code := postSolve(t, entry.url(), instancePayload(t, testInstance(bound, 2)),
		map[string]string{hopsHeader: "1"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Route != "local" {
		t.Fatalf("route %q, want local (hops guard)", out.Route)
	}
	if got := entry.srv.reg.Cluster.ProxyRequests.Value(); got != 0 {
		t.Fatalf("proxied = %d, want 0", got)
	}
}

// TestSingleflightCollapseHTTP: concurrent identical solves collapse onto
// one solver run; the leader is parked in-solver via a blocking fault hook
// while the duplicates arrive.
func TestSingleflightCollapseHTTP(t *testing.T) {
	faults := fault.New(1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faults.ArmFunc(fault.PointCancel, func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	srv, s := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour, faults: faults})
	body := instancePayload(t, testInstance(10, 2))

	const waiters = 4
	results := make(chan int, waiters+1)
	post := func() {
		resp, err := http.Post(srv.URL+"/solve", "text/plain", bytes.NewReader(body))
		if err != nil {
			results <- -1
			return
		}
		resp.Body.Close()
		results <- resp.StatusCode
	}
	go post() // leader
	<-entered // leader parked inside the solver, fingerprint registered
	for i := 0; i < waiters; i++ {
		go post()
	}
	// Wait until all five requests are inflight (leader + 4 waiters past
	// admission), then give the waiters a beat to reach the singleflight
	// gate before releasing the leader.
	for s.reg.Server.Inflight.Value() != waiters+1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	for i := 0; i < waiters+1; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := s.reg.Cluster.SingleflightCollapsed.Value(); got != waiters {
		t.Fatalf("krsp_singleflight_collapsed_total = %d, want %d", got, waiters)
	}
	// The leader's answer was cached; one more request is a pure hit.
	out, code := postSolve(t, srv.URL, body, nil)
	if code != http.StatusOK || out.Cache != "hit" {
		t.Fatalf("follow-up: status %d cache %q", code, out.Cache)
	}
}

// TestStaleServedUnderDeadlinePressure: when the deadline fires before any
// feasible flow exists (ErrNoProgress), a lapsed cache entry is served
// with stale:true instead of a 503.
func TestStaleServedUnderDeadlinePressure(t *testing.T) {
	clock := &obs.ManualClock{}
	// pollEvery 1: the endpoint flows notice the expired deadline on their
	// first poll instead of strides later, so the 1ms deadline lands in
	// phase 1 (ErrNoProgress) and not in the degradable refinement loop.
	s, err := newServer(obs.New(clock), discardLogger(),
		config{maxBody: 8 << 20, cacheSize: 8, cacheTTL: 1 /* ns */, pollEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := startHTTP(t, s)

	// A big instance the 1ms deadline cannot finish (the endpoint min-cost
	// flow alone takes tens of ms), pre-cached as if solved earlier.
	ins := gen.ER(7, 1000, 0.2, gen.DefaultWeights())
	ins.K = 3
	bounded, ok := gen.WithBound(ins, 1.3)
	if !ok {
		t.Fatal("generated instance infeasible")
	}
	fp := solvecache.Fingerprint(bounded, "solve", 0)
	seeded := cachedSolution{Cost: 1234, Delay: 56, Bound: bounded.Bound, Paths: [][]int32{{0, 1}}}
	s.cache.Put(fp, seeded, clock.Now())
	clock.Advance(10) // lapse the 1ns TTL: the entry is now stale, not fresh

	// The first post decodes the body and enters it in the memo; the
	// second is a memo hit, which decodes only because it must solve.
	// Both serve the stale entry, whose cache-hit event reports its age.
	for try, memo := range []int64{0, 1} {
		out, code := postSolve(t, hs, instancePayload(t, bounded),
			map[string]string{deadlineMsHeader: "1"})
		if code != http.StatusOK {
			t.Fatalf("try %d: status %d, want 200 (stale beats 503)", try, code)
		}
		if !out.Stale || out.Cache != "stale" {
			t.Fatalf("try %d: stale=%v cache=%q, want true/stale", try, out.Stale, out.Cache)
		}
		if out.Cost != seeded.Cost || out.Delay != seeded.Delay {
			t.Fatalf("try %d: served %d/%d, want the seeded cache entry %d/%d", try, out.Cost, out.Delay, seeded.Cost, seeded.Delay)
		}
		if args, want := lastCacheHit(t, hs), [4]int64{2, 10, memo, 0}; args != want {
			t.Fatalf("try %d: cache-hit args (state, ageNs, memo) = %v, want %v", try, args, want)
		}
	}
	if got := s.reg.Cluster.StaleServed.Value(); got != 2 {
		t.Fatalf("krsp_cache_stale_served_total = %d, want 2", got)
	}
	// Without a cache entry the same pressure is a plain 503.
	s.cache.Remove(fp)
	_, code := postSolve(t, hs, instancePayload(t, bounded),
		map[string]string{deadlineMsHeader: "1"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("uncached status %d, want 503", code)
	}
}

// startHTTP serves an already-built server on loopback and returns its
// base URL.
func startHTTP(t *testing.T, s *server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

// TestReadyz: cluster nodes expose ring membership and health; single
// nodes report ready with cluster:false.
func TestReadyz(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	resp, err := http.Get(nodes[0].url() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Ready   bool   `json:"ready"`
		Cluster bool   `json:"cluster"`
		Self    string `json:"self"`
		Members []struct {
			Addr   string `json:"addr"`
			Health string `json:"health"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Ready || !doc.Cluster || doc.Self != nodes[0].addr || len(doc.Members) != 3 {
		t.Fatalf("readyz = %+v", doc)
	}
	for _, m := range doc.Members {
		if m.Health != "up" {
			t.Fatalf("member %s health %q, want up", m.Addr, m.Health)
		}
	}

	srv, _ := testServer(t, 1<<20, false)
	resp2, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var single struct {
		Ready   bool `json:"ready"`
		Cluster bool `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if !single.Ready || single.Cluster {
		t.Fatalf("single-node readyz = %+v", single)
	}
}
