package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenCase is one fixed-seed instance of the transcript golden set. The
// topology parameters mirror krspgen's (`krspgen -topo <topo> -n <n> -seed
// <seed> -k <k> -slack <slack> -maxcost 4`), so a failing case can be
// reproduced from the command line. Costs are capped at 4 to keep the LP (6)
// engine's layered graphs small enough to solve in milliseconds.
type goldenCase struct {
	topo  string
	n     int
	seed  int64
	k     int
	slack float64
}

func (tc goldenCase) name() string {
	return fmt.Sprintf("%s-n%d-s%d-k%d", tc.topo, tc.n, tc.seed, tc.k)
}

func (tc goldenCase) instance(t *testing.T) graph.Instance {
	t.Helper()
	w := gen.Weights{MaxCost: 4, MaxDelay: 20, Correlation: -0.8}
	var ins graph.Instance
	switch tc.topo {
	case "er":
		ins = gen.ER(tc.seed, tc.n, 0.2, w)
	case "grid":
		ins = gen.Grid(tc.seed, tc.n, tc.n, w)
	case "layered":
		ins = gen.Layered(tc.seed, 5, tc.n/5+2, 0.2, w)
	case "geometric":
		ins = gen.Geometric(tc.seed, tc.n, 0.35, w)
	case "isp":
		ins = gen.ISP(tc.seed, tc.n/3+3, 2, w)
	default:
		t.Fatalf("unknown topology %q", tc.topo)
	}
	ins.K = tc.k
	ins, ok := gen.WithBound(ins, tc.slack)
	if !ok {
		t.Fatalf("instance cannot host k=%d disjoint paths", tc.k)
	}
	return ins
}

// goldenCases are chosen so every instance runs at least one cancellation
// (phase 1 alone is infeasible), exercising the bicameral search.
var goldenCases = []goldenCase{
	{"er", 16, 1, 2, 1.1},
	{"er", 16, 4, 3, 1.05},
	{"er", 14, 3, 2, 1.3},
	{"grid", 4, 2, 2, 1.2},
	{"grid", 4, 4, 2, 1.05},
	{"layered", 15, 2, 2, 1.2},
	{"layered", 15, 4, 3, 1.05},
	{"layered", 20, 3, 3, 1.3},
	{"geometric", 16, 1, 3, 1.1},
	{"geometric", 18, 2, 2, 1.2},
	{"isp", 18, 1, 2, 1.1},
	{"isp", 18, 4, 2, 1.05},
}

// TestGoldenTranscripts pins the full `krsp -stats` transcript of every
// bicameral engine on a fixed-seed instance set across all five generator
// topologies, byte for byte. Refactors below the CLI must leave these files
// untouched; when an output change is intended, replace a golden file with
// the transcript the failure prints.
func TestGoldenTranscripts(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name(), func(t *testing.T) {
			ins := tc.instance(t)
			path := filepath.Join(t.TempDir(), tc.name()+".krsp")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.WriteInstance(f, ins); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var got bytes.Buffer
			for _, engine := range []string{"comb", "lp", "minratio"} {
				fmt.Fprintf(&got, "== engine %s\n", engine)
				if _, err := run([]string{"-engine", engine, "-stats", path}, &got); err != nil {
					t.Fatalf("engine %s: %v", engine, err)
				}
			}
			golden := filepath.Join("testdata", tc.name()+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("transcript differs from %s\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
			}
		})
	}
}
