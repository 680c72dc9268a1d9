// Tests of the /solve body memo, the Server-Timing header and the
// cache-hit event's arguments: a repeated body skips decode and
// fingerprint, and the memo never changes an answer.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// postRaw sends one solve and returns its status, body and Server-Timing
// stage names.
func postRaw(t *testing.T, url, query string, body []byte) (int, []byte, []string) {
	t.Helper()
	resp, err := http.Post(url+"/solve"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, stageNames(resp.Header.Get("Server-Timing"))
}

// stageNames lists the metric names of a Server-Timing header, keeping a
// desc parameter as name:desc ("cache:hit").
func stageNames(h string) []string {
	var names []string
	for _, entry := range strings.Split(h, ", ") {
		if entry == "" {
			continue
		}
		params := strings.Split(entry, ";")
		name := params[0]
		for _, p := range params[1:] {
			if desc, ok := strings.CutPrefix(p, "desc="); ok {
				name += ":" + strings.Trim(desc, `"`)
			}
		}
		names = append(names, name)
	}
	return names
}

// answerJSON strips the fields that may differ between two servers giving
// the same answer: requestId, traceId and the cache classification.
func answerJSON(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	delete(doc, "requestId")
	delete(doc, "traceId")
	delete(doc, "cache")
	return doc
}

// lastCacheHit returns the args of the cache-hit event in the server's
// last trace.
func lastCacheHit(t *testing.T, url string) [4]int64 {
	t.Helper()
	resp, err := http.Get(url + "/debug/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, evs, err := rec.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Kind == rec.KindCacheHit {
			return ev.Args
		}
	}
	t.Fatalf("last trace has no cache-hit event (%d events)", len(evs))
	return [4]int64{}
}

// permutedPayload writes ins with its edge lines in reverse order: the same
// instance (and fingerprint) in different bytes.
func permutedPayload(t *testing.T, ins graph.Instance) []byte {
	t.Helper()
	lines := strings.SplitAfter(string(instancePayload(t, ins)), "\n")
	var head, edges []string
	for _, l := range lines {
		if strings.HasPrefix(l, "edge ") {
			edges = append([]string{l}, edges...)
		} else if l != "" {
			head = append(head, l)
		}
	}
	return []byte(strings.Join(append(head, edges...), ""))
}

// memoBodies are the valid instances the memo tests post: the 4-node
// instance and two generated ones whose solves cancel cycles.
func memoBodies(t *testing.T) [][]byte {
	t.Helper()
	bodies := [][]byte{instancePayload(t, testInstance(10, 2))}
	for seed := int64(1); seed <= 2; seed++ {
		ins := gen.ER(seed, 30, 0.3, gen.DefaultWeights())
		ins.K = 2
		bounded, ok := gen.WithBound(ins, 1.1)
		if !ok {
			t.Fatalf("ER seed %d infeasible", seed)
		}
		bodies = append(bodies, instancePayload(t, bounded))
	}
	return bodies
}

// TestSolveServerTiming: a body seen for the first time decodes,
// fingerprints and solves; its repeat is a memo hit that lists only the
// digest and the cache lookup. With the cache off there is no memo, so no
// digest either.
func TestSolveServerTiming(t *testing.T) {
	srv, _ := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour})
	body := instancePayload(t, testInstance(10, 2))
	for _, tc := range []struct {
		name string
		want []string
	}{
		{"first sight", []string{"digest", "decode", "fingerprint", "cache:miss", "solve"}},
		{"repeat", []string{"digest", "cache:hit"}},
	} {
		code, _, stages := postRaw(t, srv.URL, "", body)
		if code != http.StatusOK || !reflect.DeepEqual(stages, tc.want) {
			t.Fatalf("%s: status %d, Server-Timing stages %v, want 200 with %v", tc.name, code, stages, tc.want)
		}
	}

	off, _ := testServer(t, 1<<20, false)
	code, _, stages := postRaw(t, off.URL, "", body)
	if want := []string{"decode", "fingerprint", "solve"}; code != http.StatusOK || !reflect.DeepEqual(stages, want) {
		t.Fatalf("cache off: status %d, stages %v, want 200 with %v", code, stages, want)
	}
}

// TestMemoMatchesUncached is the differential check: under every algo, a
// repeated body (a memo hit) gets the same JSON as the first post and as a
// server with the cache off. Only requestId, traceId and cache may differ.
func TestMemoMatchesUncached(t *testing.T) {
	cached, _ := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 64, cacheTTL: time.Hour})
	uncached, _ := testServer(t, 1<<20, false)
	for i, body := range memoBodies(t) {
		for _, q := range []string{"", "?algo=solve", "?algo=phase1", "?algo=scaled", "?algo=scaled&eps=0.5"} {
			code, want, _ := postRaw(t, uncached.URL, q, body)
			if code != http.StatusOK {
				t.Fatalf("body %d %q: uncached status %d: %s", i, q, code, want)
			}
			for try := 0; try < 2; try++ {
				code, got, stages := postRaw(t, cached.URL, q, body)
				if code != http.StatusOK {
					t.Fatalf("body %d %q try %d: status %d: %s", i, q, try, code, got)
				}
				if try == 1 && !reflect.DeepEqual(stages, []string{"digest", "cache:hit"}) {
					t.Fatalf("body %d %q: repeat ran %v, want a memo hit", i, q, stages)
				}
				if !reflect.DeepEqual(answerJSON(t, got), answerJSON(t, want)) {
					t.Fatalf("body %d %q try %d: answer differs from the uncached server\n got %s\nwant %s", i, q, try, got, want)
				}
			}
		}
	}
}

// TestMemoSkipsInvalidBodies: a request the decode path rejects is never
// memoized, so every repeat is the same 400 with the same message, even
// for a body the memo holds under another algo or eps.
func TestMemoSkipsInvalidBodies(t *testing.T) {
	srv, s := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour})
	valid := instancePayload(t, testInstance(10, 2))
	for _, q := range []string{"", "?algo=scaled"} {
		if code, msg, _ := postRaw(t, srv.URL, q, valid); code != http.StatusOK {
			t.Fatalf("valid body %q: status %d: %s", q, code, msg)
		}
	}
	for _, tc := range []struct {
		name, query, body, msg string
	}{
		{"bad parse", "", "garbage", "bad instance: line 1: expected header 'krsp v1'"},
		{"failed Validate", "", "krsp v1\nnodes 2\nst 0 1\nk 0\nbound 5\nedge 0 1 1 1\n", "k=0, want ≥ 1"},
		{"unknown algo", "?algo=bogus", string(valid), "unknown algo bogus"},
		{"bad eps", "?algo=scaled&eps=-1", string(valid), "bad eps"},
	} {
		var first []byte
		for try := 0; try < 3; try++ {
			code, msg, _ := postRaw(t, srv.URL, tc.query, []byte(tc.body))
			if code != http.StatusBadRequest || !strings.Contains(string(msg), tc.msg) {
				t.Fatalf("%s try %d: status %d %q, want 400 containing %q", tc.name, try, code, msg, tc.msg)
			}
			if try == 0 {
				first = msg
			} else if !bytes.Equal(msg, first) {
				t.Fatalf("%s try %d: message %q, first was %q", tc.name, try, msg, first)
			}
		}
	}
	if got := s.memo.Len(); got != 2 {
		t.Fatalf("memo holds %d bodies, want only the 2 valid requests", got)
	}
}

// TestMemoSameInstanceDifferentBytes: the memo keys raw bytes, the cache
// keys the canonical fingerprint (DESIGN.md §14). A body that permutes the
// edge lines or adds trailing white space misses the memo and decodes, yet
// its fingerprint still hits the cached answer.
func TestMemoSameInstanceDifferentBytes(t *testing.T) {
	srv, s := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour})
	ins := testInstance(10, 2)
	body := instancePayload(t, ins)
	code, want, _ := postRaw(t, srv.URL, "", body)
	if code != http.StatusOK {
		t.Fatalf("first post: status %d", code)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"permuted edges", permutedPayload(t, ins)},
		{"trailing white space", append(append([]byte{}, body...), " \n\t\n"...)},
	} {
		code, got, stages := postRaw(t, srv.URL, "", tc.body)
		if wantStages := []string{"digest", "decode", "fingerprint", "cache:hit"}; code != http.StatusOK || !reflect.DeepEqual(stages, wantStages) {
			t.Fatalf("%s: status %d stages %v, want 200 with %v", tc.name, code, stages, wantStages)
		}
		if !reflect.DeepEqual(answerJSON(t, got), answerJSON(t, want)) {
			t.Fatalf("%s: answer %s, want %s", tc.name, got, want)
		}
		var out solveResponse
		if err := json.Unmarshal(got, &out); err != nil || out.Cache != "hit" {
			t.Fatalf("%s: cache %q (err %v), want hit", tc.name, out.Cache, err)
		}
	}
	if s.memo.Len() != 3 || s.cache.Len() != 1 {
		t.Fatalf("memo %d bodies, cache %d answers; want 3 and 1", s.memo.Len(), s.cache.Len())
	}
}

// TestMemoExpiredSolutionDecodes: a memo hit whose cached answer has gone
// stale must solve again, so it decodes the body (but takes its
// fingerprint from the memo) and returns the same answer.
func TestMemoExpiredSolutionDecodes(t *testing.T) {
	clock := &obs.ManualClock{}
	s, err := newServer(obs.New(clock), discardLogger(),
		config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	url := startHTTP(t, s)
	body := instancePayload(t, testInstance(10, 2))
	code, want, _ := postRaw(t, url, "", body)
	if code != http.StatusOK {
		t.Fatalf("first post: status %d", code)
	}
	clock.Advance(2 * time.Second.Nanoseconds())
	code, got, stages := postRaw(t, url, "", body)
	if wantStages := []string{"digest", "cache:stale", "decode", "solve"}; code != http.StatusOK || !reflect.DeepEqual(stages, wantStages) {
		t.Fatalf("expired repeat: status %d stages %v, want 200 with %v", code, stages, wantStages)
	}
	if !reflect.DeepEqual(answerJSON(t, got), answerJSON(t, want)) {
		t.Fatalf("expired repeat: answer %s, want %s", got, want)
	}
	if got := s.reg.Solver.Solves.Value(); got != 2 {
		t.Fatalf("krsp_solves_total = %d, want 2 (the expired answer is solved again)", got)
	}
}

// TestCacheHitEventArgs: the cache-hit event carries the entry's real age
// and whether the memo supplied the fingerprint.
func TestCacheHitEventArgs(t *testing.T) {
	clock := &obs.ManualClock{}
	s, err := newServer(obs.New(clock), discardLogger(),
		config{maxBody: 1 << 20, cacheSize: 8, cacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	url := startHTTP(t, s)
	ins := testInstance(10, 2)
	if code, _, _ := postRaw(t, url, "", instancePayload(t, ins)); code != http.StatusOK {
		t.Fatalf("first post: status %d", code)
	}
	const delta = 1234
	clock.Advance(delta)
	for _, tc := range []struct {
		name string
		body []byte
		memo int64
	}{
		{"repeat", instancePayload(t, ins), 1},
		{"permuted", permutedPayload(t, ins), 0},
	} {
		if code, _, _ := postRaw(t, url, "", tc.body); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, code)
		}
		args := lastCacheHit(t, url)
		if want := [4]int64{1, delta, tc.memo, 0}; args != want {
			t.Fatalf("%s: cache-hit args (state, ageNs, memo) = %v, want %v", tc.name, args, want)
		}
	}
}

// TestMemoConcurrent posts a mix of repeated, distinct and invalid bodies
// from several goroutines to one server whose cache (and memo) is small
// enough to evict, and checks every reply. make race runs it at -count=10.
func TestMemoConcurrent(t *testing.T) {
	srv, _ := testServerCfg(t, config{maxBody: 1 << 20, cacheSize: 4, cacheTTL: time.Hour})
	type want struct {
		code int
		sol  cachedSolution // for 200s
		msg  string         // for 400s
	}
	var bodies [][]byte
	var wants []want
	for bound := int64(8); bound < 16; bound++ {
		ins := testInstance(bound, 2)
		res, err := core.Solve(ins, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, instancePayload(t, ins))
		wants = append(wants, want{code: http.StatusOK, sol: newCachedSolution(res, ins)})
	}
	bodies = append(bodies, []byte("garbage"), []byte("krsp v1\nnodes 2\nst 0 0\nk 1\nbound 5\n"))
	wants = append(wants, want{code: http.StatusBadRequest, msg: "bad instance"},
		want{code: http.StatusBadRequest, msg: "source equals sink"})

	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the requests repeat body 0 or 1; the rest walk
				// every body, invalid ones included.
				j := (w + i) % 2
				if i%2 == 1 {
					j = (w*perWorker + i) % len(bodies)
				}
				if err := checkReply(srv.URL, bodies[j], wants[j].code, wants[j].sol, wants[j].msg); err != nil {
					t.Errorf("worker %d request %d (body %d): %v", w, i, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkReply posts body and compares the reply with the expected status
// and answer (200) or message (400). It returns an error rather than
// failing, so goroutines can call it.
func checkReply(url string, body []byte, code int, sol cachedSolution, msg string) error {
	resp, err := http.Post(url+"/solve", "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != code {
		return fmt.Errorf("status %d (%s), want %d", resp.StatusCode, got, code)
	}
	if code != http.StatusOK {
		if !strings.Contains(string(got), msg) {
			return fmt.Errorf("message %q, want one containing %q", got, msg)
		}
		return nil
	}
	var out solveResponse
	if err := json.Unmarshal(got, &out); err != nil {
		return err
	}
	if out.Cost != sol.Cost || out.Delay != sol.Delay || !reflect.DeepEqual(out.Paths, sol.Paths) {
		return fmt.Errorf("answer %d/%d %v, want %d/%d %v", out.Cost, out.Delay, out.Paths, sol.Cost, sol.Delay, sol.Paths)
	}
	return nil
}
