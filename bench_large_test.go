package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// --- large-instance tier (N = 5k .. 50k) --------------------------------
//
// These rows exist to measure the CSR core and phase 1 at the scale they
// were built for; they are skipped under -short so the regular test sweep
// stays fast. `make bench-large` runs the full tier,
// `make check` runs the N=5k smoke.

// largeInstance builds a layered-grid instance with ≈ n vertices and Θ(n)
// edges, and sets a delay bound in the Lagrangian-hard band: above the
// minimum k-flow delay (feasible) but below the min-cost flow's delay (so
// phase 1 actually runs its λ search). gen.WithBound is deliberately NOT
// used here — its max-flow feasibility certificate is Θ(width) augmentations
// on this family, which would dwarf the setup of every benchmark below.
func largeInstance(b *testing.B, n, k int) graph.Instance {
	b.Helper()
	width := 100
	for width*width < 2*n { // layers ≈ width/2 keeps lanes plentiful
		width += 50
	}
	layers := (n + width - 1) / width
	ins := gen.LayeredGrid(42, layers, width, gen.DefaultWeights())
	ins.K = k
	g := ins.G
	fd, err := flow.MinCostKFlow(g, ins.S, ins.T, k, shortest.LinDelay)
	if err != nil {
		b.Fatalf("min-delay flow: %v", err)
	}
	minD := fd.Delay(g)
	ins.Bound = minD + minD/10 + 1
	return ins
}

func benchPhase1Classic(b *testing.B, n, k int) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	ins := largeInstance(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Phase1(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhase1ClassicN5k(b *testing.B)  { benchPhase1Classic(b, 5_000, 3) }
func BenchmarkPhase1ClassicN20k(b *testing.B) { benchPhase1Classic(b, 20_000, 3) }
func BenchmarkPhase1ClassicN50k(b *testing.B) { benchPhase1Classic(b, 50_000, 3) }

// BenchmarkSolveLargeN5k and its N=20k and N=50k siblings run the full
// production pipeline (core.Options{}: phase 1 plus the cancellation loop)
// — the end-to-end rows behind the "N=60 → N=5k+" claim, not just phase 1.
func BenchmarkSolveLargeN5k(b *testing.B)  { benchSolveLarge(b, 5_000, 3) }
func BenchmarkSolveLargeN20k(b *testing.B) { benchSolveLarge(b, 20_000, 3) }
func BenchmarkSolveLargeN50k(b *testing.B) { benchSolveLarge(b, 50_000, 3) }

// BenchmarkDecodeN5k is krspd's decode layer on an N=5k body, the work a
// cache hit does before it fingerprints: graph.ReadInstance plus Validate.
func BenchmarkDecodeN5k(b *testing.B) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	var body bytes.Buffer
	if err := graph.WriteInstance(&body, largeInstance(b, 5_000, 3)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, err := graph.ReadInstance(bytes.NewReader(body.Bytes()))
		if err == nil {
			err = ins.Validate()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchSolveLarge(b *testing.B, n, k int) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	ins := largeInstance(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
