package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/solvecache"
)

// maxInFlight caps the requests the benchmark has outstanding: the machine
// it was calibrated on has two cores, shared with the nodes it drives.
const maxInFlight = 2

// maxLateMs is the open-loop generator lateness (p90) beyond which a run no
// longer measures the schedule it claims to.
const maxLateMs = 5

// openShare is the part of a krspd run spent in the open loop; the closed
// loop that measures capacity takes the rest.
const openShare = 2.0 / 3

// replaySolves is how many of a fresh workload's instances the traced run
// solves in-process to split the server's solve time by layer.
const replaySolves = 24

// buildKrspd builds ./cmd/krspd into dir and returns the binary's path.
func buildKrspd(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "krspd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/krspd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building krspd: %v\n%s", err, out)
	}
	return bin, nil
}

// node is one krspd process.
type node struct {
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited
}

// startNode starts krspd with args, logging to logPath.
func startNode(bin, logPath, addr string, args []string) (*node, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	// If the benchmark dies, its nodes die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting krspd: %w", err)
	}
	n := &node{addr: addr, cmd: cmd, log: f, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

// exited reports whether the process has ended.
func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// stop ends the process and waits for it: SIGTERM lets krspd drain, SIGKILL
// follows if it has not exited within 15 s.
func (n *node) stop() {
	if !n.exited() {
		n.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-n.done:
	case <-time.After(15 * time.Second):
		n.cmd.Process.Kill()
		<-n.done
	}
	n.log.Close()
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// freeAddrs reserves count loopback ports. Holding every listener until all
// are open keeps the ports distinct.
func freeAddrs(count int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < count; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
	}
	addrs := make([]string, count)
	for i, l := range ls {
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startCluster starts w.nodes krspd processes (a ring when more than one)
// and waits until each answers /readyz.
func startCluster(w workload, rc runConfig, client *http.Client) ([]*node, error) {
	addrs, err := freeAddrs(w.nodes)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	for i, addr := range addrs {
		// A 10-minute TTL keeps every hot entry fresh for the whole run; the
		// 1-minute default would turn late hits into misses.
		args := []string{"-cache", "4096", "-cache-ttl", "10m"}
		if w.nodes > 1 {
			args = append(args, "-cluster", strings.Join(addrs, ","), "-self", addr)
		}
		n, err := startNode(rc.krspd, filepath.Join(rc.dir, fmt.Sprintf("krspd-%d.log", i)), addr, args)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range nodes {
		for !ready(client, n.addr) {
			if n.exited() || time.Now().After(deadline) {
				stopNodes(nodes)
				return nil, fmt.Errorf("krspd at %s never became ready (log in %s)", n.addr, rc.dir)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes, nil
}

func ready(client *http.Client, addr string) bool {
	resp, err := client.Get("http://" + addr + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// solveReply is the part of krspd's /solve response the benchmark reads.
type solveReply struct {
	Cost       int64     `json:"cost"`
	Delay      int64     `json:"delay"`
	LowerBound int64     `json:"lowerBound"`
	Paths      [][]int32 `json:"paths"`
	Degraded   bool      `json:"degraded"`
	Cache      string    `json:"cache"`
	Route      string    `json:"route"`
}

// sample is one request as the client saw it. Times are offsets from the
// start of its loop.
type sample struct {
	body            int // index of the posted input
	due, sent, done time.Duration
	reply           solveReply
	err             error
	certified       bool
}

// latency is the request's time from when it was due to be sent.
func (s sample) latency() float64 {
	if s.err != nil || !s.certified {
		return inf
	}
	return ms(s.done - s.due)
}

// service is the request's time from when it was actually sent.
func (s sample) service() float64 { return ms(s.done - s.sent) }

// post sends one solve request and decodes the reply.
func post(client *http.Client, url string, body []byte) (solveReply, error) {
	var r solveReply
	resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return r, fmt.Errorf("decoding reply: %w", err)
	}
	return r, nil
}

// serviceInputs are a krspd run's request bodies.
type serviceInputs struct {
	bodies [][]byte
	warm   [][]byte
	// open lists the body each open-loop request posts; the closed loop
	// posts body closed(j) for its j-th request, up to closedLimit.
	open        []int
	closedLimit int
}

// closed is the body of the closed loop's j-th request: the hot set in
// turn, or the fresh bodies that follow the open loop's.
func (in serviceInputs) closed(w workload, j int) int {
	if w.hot > 0 {
		return j % w.hot
	}
	return len(in.open) + j
}

// generateBodies renders inputs from..from+count-1, one worker per CPU.
func generateBodies(w workload, seed int64, from, count int) ([][]byte, error) {
	out := make([][]byte, count)
	errs := make([]error, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				ins, err := instance(seed, w, from+i)
				if err == nil {
					var buf bytes.Buffer
					err = graph.WriteInstance(&buf, ins)
					out[i] = buf.Bytes()
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serviceSetup generates a krspd run's inputs, starts its nodes and warms
// them: the hot set is solved once (filling the cache), a fresh workload
// sends two warm-up instances through every node.
func serviceSetup(w workload, rc runConfig, client *http.Client) (serviceInputs, []*node, error) {
	var in serviceInputs
	open := int(w.rate * rc.seconds.Seconds() * openShare)
	rng := rand.New(rand.NewSource(instanceSeed(rc.seed, w.name+"/order", 0)))
	var err error
	if w.hot > 0 {
		if in.bodies, err = generateBodies(w, rc.seed, 0, w.hot); err != nil {
			return in, nil, err
		}
		in.warm = in.bodies
		for i := 0; i < open; i++ {
			in.open = append(in.open, rng.Intn(w.hot))
		}
		in.closedLimit = 1 << 30
	} else {
		closed := int(w.closedRate * rc.seconds.Seconds() * (1 - openShare))
		if in.bodies, err = generateBodies(w, rc.seed, 0, open+closed); err != nil {
			return in, nil, err
		}
		if in.warm, err = generateBodies(w, rc.seed, -2*w.nodes-1, 2*w.nodes); err != nil {
			return in, nil, err
		}
		for i := 0; i < open; i++ {
			in.open = append(in.open, i)
		}
		in.closedLimit = closed
	}
	nodes, err := startCluster(w, rc, client)
	if err != nil {
		return in, nil, err
	}
	for i, body := range in.warm {
		if _, err := post(client, solveURL(w, nodes, i), body); err != nil {
			stopNodes(nodes)
			return in, nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return in, nodes, nil
}

// solveURL is the /solve endpoint of the node that request i goes to.
func solveURL(w workload, nodes []*node, i int) string {
	return "http://" + nodes[i%len(nodes)].addr + "/solve?algo=" + w.algo()
}

// openLoop sends the open-loop requests on their schedule, rate per second,
// never more than maxInFlight at once: a request due while both slots are
// busy waits, and that wait counts in its latency. late is how far each send
// trailed its due time for reasons of the generator's own (timer wake-up),
// not of a busy slot.
func openLoop(w workload, in serviceInputs, nodes []*node, client *http.Client) (samples []sample, late []float64) {
	samples = make([]sample, len(in.open))
	late = make([]float64, len(in.open))
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	var free time.Duration // when the dispatcher last had a slot in hand
	for i, body := range in.open {
		due := time.Duration(float64(i) / w.rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(start) - max(due, free))
		slots <- struct{}{}
		free = time.Since(start)
		wg.Add(1)
		go func(i, body int, due time.Duration) {
			defer wg.Done()
			s := &samples[i]
			s.body, s.due, s.sent = body, due, time.Since(start)
			s.reply, s.err = post(client, solveURL(w, nodes, i), in.bodies[body])
			s.done = time.Since(start)
			<-slots
		}(i, body, due)
	}
	wg.Wait()
	return samples, late
}

// closedLoop runs maxInFlight clients back to back for d, or until the
// inputs run out, and returns their requests and the loop's length.
func closedLoop(w workload, in serviceInputs, nodes []*node, client *http.Client, d time.Duration) ([]sample, time.Duration) {
	per := make([][]sample, maxInFlight)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				j := int(next.Add(1) - 1)
				if j >= in.closedLimit {
					return
				}
				s := sample{body: in.closed(w, j), sent: time.Since(start)}
				s.due = s.sent
				s.reply, s.err = post(client, solveURL(w, nodes, j), in.bodies[s.body])
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// nodeTotals scrapes every node: allocated bytes from /debug/vars and, when
// metrics is set, the /metrics exposition summed over nodes.
func nodeTotals(client *http.Client, nodes []*node, metrics bool) (alloc uint64, sum scrape, err error) {
	sum = scrape{}
	for _, n := range nodes {
		resp, err := client.Get("http://" + n.addr + "/debug/vars")
		if err != nil {
			return 0, nil, err
		}
		var vars struct {
			Memstats struct {
				TotalAlloc uint64
			} `json:"memstats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return 0, nil, fmt.Errorf("%s/debug/vars: %w", n.addr, err)
		}
		alloc += vars.Memstats.TotalAlloc
		if !metrics {
			continue
		}
		resp, err = client.Get("http://" + n.addr + "/metrics")
		if err != nil {
			return 0, nil, err
		}
		s, err := parseScrape(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, fmt.Errorf("%s/metrics: %w", n.addr, err)
		}
		sum.add(s)
	}
	return alloc, sum, nil
}

// runService runs a krspd workload: set up (three times, keeping the last),
// an open loop at w.rate for two thirds of the run, then a closed loop of
// maxInFlight clients for the rest. Every reply is certified against the
// body it answered, after the clock stops.
func runService(w workload, rc runConfig) (map[string]float64, outcome, error) {
	var o outcome
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 2 * maxInFlight, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	var setups []float64
	var in serviceInputs
	var nodes []*node
	for r := 0; r < setupReps; r++ {
		if nodes != nil {
			stopNodes(nodes)
		}
		start := time.Now()
		var err error
		if in, nodes, err = serviceSetup(w, rc, client); err != nil {
			return nil, o, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer stopNodes(nodes)

	alloc0, metrics0, err := nodeTotals(client, nodes, rc.trace)
	if err != nil {
		return nil, o, err
	}
	pids := make([]int, len(nodes))
	for i, n := range nodes {
		pids[i] = n.cmd.Process.Pid
	}
	rss := sampleRSS(pids)
	openSamples, late := openLoop(w, in, nodes, client)
	closedSamples, closedFor := closedLoop(w, in, nodes, client, time.Duration(float64(rc.seconds)*(1-openShare)))
	rssMB := rss.finish()
	alloc1, metrics1, err := nodeTotals(client, nodes, rc.trace)
	if err != nil {
		return nil, o, err
	}
	for _, n := range nodes {
		if n.exited() {
			o.invalid("krspd at %s exited during the run", n.addr)
		}
	}

	var q answerStats
	if err := certifyReplies(w, in, &o, &q, openSamples, closedSamples); err != nil {
		return nil, o, err
	}
	lat := make([]float64, len(openSamples))
	for i, s := range openSamples {
		lat[i] = s.latency()
	}
	lateP90, _ := percentile(late, 0.9)
	if lateP90 > maxLateMs {
		o.invalid("the open-loop generator ran %.2f ms late at p90 (limit %d ms)", lateP90, maxLateMs)
	}
	requests := len(openSamples) + len(closedSamples)
	m := map[string]float64{"setup_s": median(setups)}
	if !rc.trace {
		p50, _ := percentile(lat, 0.5)
		p90, ok := percentile(lat, 0.9)
		if !ok {
			o.invalid("%d requests leave fewer than %d beyond p90", len(lat), minBeyond)
		}
		m["latency_ms.p50"], m["latency_ms.p90"] = p50, p90
		ops := make([]timedOp, len(closedSamples))
		for i, s := range closedSamples {
			ops[i] = timedOp{at: s.done, ok: s.certified}
		}
		m["throughput_per_s"] = medianRate(ops, max(1, int(closedFor.Seconds())), closedFor, false)
		if requests > 0 {
			m["alloc_mb_per_op"] = float64(alloc1-alloc0) / float64(requests) / 1e6
		}
		m["rss_mb"] = rssMB
		m["cost_over_lb"] = q.costOverLB()
		return m, o, nil
	}

	all := append(openSamples, closedSamples...)
	d := metrics1.minus(metrics0)
	serverMetrics(m, d, requests)
	m["proxy.retries"] = d["krsp_proxy_retries_total"] / float64(requests)
	var hits, proxied int
	var hitMs, localMs, proxiedMs []float64
	for _, s := range all {
		switch {
		case s.err != nil:
		case s.reply.Cache == "hit":
			hits++
			hitMs = append(hitMs, s.service())
		case strings.HasPrefix(s.reply.Route, "proxy:"):
			proxied++
			proxiedMs = append(proxiedMs, s.service())
		case s.reply.Route == "local":
			localMs = append(localMs, s.service())
		}
	}
	m["cache.hit_ratio"] = float64(hits) / float64(requests)
	m["proxy.frac"] = float64(proxied) / float64(requests)
	m["http.local_ms.p50"], _ = percentile(localMs, 0.5)
	m["http.proxied_ms.p50"], _ = percentile(proxiedMs, 0.5)
	decodeMs, fpMs, err := decodeCost(w, in, all)
	if err != nil {
		return nil, o, err
	}
	m["decode.ms"], m["fingerprint.ms"] = decodeMs, fpMs
	if len(hitMs) > 0 {
		p50, _ := percentile(hitMs, 0.5)
		m["http.hit_ms.p50"] = p50 - decodeMs - fpMs
	}
	m["gen.late_ms.p90"] = lateP90
	m["cert.over_2lb"] = float64(q.over2LB)
	// krspd runs the same code traced or not (its recorder is always on);
	// the benchmark's own tracing happens outside the timed loops.
	m["trace.overhead_frac"] = 0
	if perReq := m["server.solves_per_req"]; perReq > 0 {
		layers, reg, err := replay(w, in)
		if err != nil {
			return nil, o, err
		}
		solverLayerMetrics(m, layers, reg, perReq)
		if layers.dropped > 0 {
			o.invalid("the recorder dropped %d events", layers.dropped)
		}
	}
	return m, o, nil
}

// certifyReplies checks every 2xx reply against the body it answered.
func certifyReplies(w workload, in serviceInputs, o *outcome, q *answerStats, loops ...[]sample) error {
	decoded := map[int]graph.Instance{}
	for _, samples := range loops {
		for i := range samples {
			s := &samples[i]
			o.attempted++
			what := fmt.Sprintf("request for input %d", s.body)
			if s.err != nil {
				o.fail("%s: %v", what, s.err)
				continue
			}
			ins, ok := decoded[s.body]
			if !ok {
				var err error
				if ins, err = graph.ReadInstance(bytes.NewReader(in.bodies[s.body])); err != nil {
					return fmt.Errorf("decoding input %d: %w", s.body, err)
				}
				if w.hot > 0 {
					decoded[s.body] = ins
				}
			}
			paths, err := edgePaths(ins.G, s.reply.Paths)
			if err != nil {
				o.fail("%s: certificate: %v", what, err)
				continue
			}
			a := answer{paths: paths, cost: s.reply.Cost, delay: s.reply.Delay, lb: s.reply.LowerBound,
				phase1: w.phase1Only, degraded: s.reply.Degraded}
			s.certified = q.check(o, ins, a, what)
		}
	}
	return nil
}

// decodeCost times, in this process, what krspd does to every body before
// it can look at the cache: graph.ReadInstance plus Validate, then
// solvecache.Fingerprint. It returns the mean per request in ms, taken over
// up to 32 distinct bodies the run sent, each timed as the best of three.
func decodeCost(w workload, in serviceInputs, all []sample) (decodeMs, fpMs float64, err error) {
	seen := map[int]bool{}
	var dSum, fSum float64
	for _, s := range all {
		if seen[s.body] || len(seen) == 32 {
			continue
		}
		seen[s.body] = true
		bestD, bestF := inf, inf
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			ins, err := graph.ReadInstance(bytes.NewReader(in.bodies[s.body]))
			if err == nil {
				err = ins.Validate()
			}
			if err != nil {
				return 0, 0, fmt.Errorf("decoding input %d: %w", s.body, err)
			}
			t1 := time.Now()
			solvecache.Fingerprint(ins, w.algo(), 0)
			t2 := time.Now()
			bestD, bestF = min(bestD, ms(t1.Sub(t0))), min(bestF, ms(t2.Sub(t1)))
		}
		dSum += bestD
		fSum += bestF
	}
	if len(seen) == 0 {
		return 0, 0, nil
	}
	return dSum / float64(len(seen)), fSum / float64(len(seen)), nil
}

// replay solves the first open-loop inputs in-process with the recorder and
// a registry attached, as krspd would solve them, for the layer split krspd
// does not expose per request.
func replay(w workload, in serviceInputs) (layerTotals, scrape, error) {
	var t layerTotals
	recorder := rec.New(obs.RealClock{}, 1<<16)
	reg := obs.New(obs.RealClock{})
	opts := core.Options{Phase1Only: w.phase1Only, Recorder: recorder, Metrics: reg}
	for i := 0; i < len(in.open) && i < replaySolves; i++ {
		ins, err := graph.ReadInstance(bytes.NewReader(in.bodies[in.open[i]]))
		if err != nil {
			return t, nil, err
		}
		recorder.Reset()
		_, d, _, err := timedSolve(ins, opts)
		if err != nil {
			return t, nil, fmt.Errorf("replaying input %d: %w", in.open[i], err)
		}
		t.dropped += recorder.Dropped()
		if err := t.add(recorder.Events(), d); err != nil {
			return t, nil, err
		}
	}
	s, err := registryScrape(reg)
	return t, s, err
}
