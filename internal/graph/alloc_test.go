package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// decodeAllocs is what one ReadInstance of a named WriteInstance body from
// a *bytes.Reader allocates, whatever its size: the reader, the read
// buffer, the edge array, the name, the graph, its two row arrays, the
// degree counts and the two row backing arrays.
const decodeAllocs = 10

// TestReadInstanceAllocs is the runtime witness for the decode path: the
// parse allocates the same constant count at N≈1k and at N≈5k (no
// per-line or per-edge allocation), and Validate allocates once.
func TestReadInstanceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N≈5k allocation witness: skipped under -short")
	}
	for _, layers := range []int{10, 50} {
		src := gen.LayeredGrid(7, layers, 100, gen.DefaultWeights())
		var buf bytes.Buffer
		if err := graph.WriteInstance(&buf, src); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		var ins graph.Instance
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			ins, err = graph.ReadInstance(bytes.NewReader(body))
		})
		if err != nil {
			t.Fatal(err)
		}
		if ins.G.NumNodes() != src.G.NumNodes() || ins.G.NumEdges() != src.G.NumEdges() {
			t.Fatalf("N=%d: parsed %v, wrote %v", src.G.NumNodes(), ins.G, src.G)
		}
		if allocs != decodeAllocs {
			t.Errorf("N=%d: ReadInstance made %v allocs/run, want %d", src.G.NumNodes(), allocs, decodeAllocs)
		}
		if got := testing.AllocsPerRun(5, func() { err = ins.G.Validate() }); err != nil || got > 1 {
			t.Errorf("N=%d: Validate made %v allocs/run (err %v), want at most 1", src.G.NumNodes(), got, err)
		}
	}
}
