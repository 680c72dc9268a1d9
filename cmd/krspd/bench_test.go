package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// BenchmarkSolveHTTPN5k times one /solve of an N=5k layered grid through
// the handler, in process. hit repeats a cached body, so it pays the
// digest and the cache lookup; miss runs with the cache off under
// algo=phase1, so it pays decode, fingerprint and a phase-1 solve. Neither
// is skipped under -short, so make bench-smoke runs both.
func BenchmarkSolveHTTPN5k(b *testing.B) {
	grid := gen.LayeredGrid(42, 50, 100, gen.DefaultWeights())
	grid.K = 3
	ins, ok := gen.WithBound(grid, 1.1)
	if !ok {
		b.Fatal("N=5k grid infeasible")
	}
	var body bytes.Buffer
	if err := graph.WriteInstance(&body, ins); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		cacheSize int
	}{{"hit", 8}, {"miss", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := newServer(obs.New(&obs.ManualClock{}), discardLogger(),
				config{maxBody: 8 << 20, cacheSize: bc.cacheSize, cacheTTL: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			h := s.handler()
			post := func() {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/solve?algo=phase1", bytes.NewReader(body.Bytes())))
				if rr.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
				}
			}
			post() // fills the cache and the memo for hit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
