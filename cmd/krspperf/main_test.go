package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bodiesHash hashes the first request bodies of every tiny workload.
func bodiesHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, w := range tinyWorkloads {
		bodies, err := generateBodies(w, seed, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			h.Write(b)
		}
	}
	return h.Sum64()
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b, c := bodiesHash(t, 7), bodiesHash(t, 7), bodiesHash(t, 8)
	if a != b {
		t.Errorf("seed 7 generated different inputs: %x then %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 generated the same inputs (%x)", a)
	}
}

// TestMetricsMatchBenchmarkFile keeps the program and BENCHMARK.json in step.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(fullWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(fullWorkloads))
	}
	for i, w := range fullWorkloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestSmokeTiny runs every workload at tiny scale, untraced and traced,
// against a krspd built for the test.
func TestSmokeTiny(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build krspd")
	}
	dir := t.TempDir()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildKrspd(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(dir, "report-"+trace+".json")
		code := run([]string{"-scale", "tiny", "-workload", "all", "-seconds", "1", "-trace", trace,
			"-build", dir, "-krspd", bin, "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		rep, err := readReport(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Runs) != len(tinyWorkloads) {
			t.Fatalf("trace %s: %d runs, want %d", trace, len(rep.Runs), len(tinyWorkloads))
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		for _, r := range rep.Runs {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("trace %s: %s: correct %v, %d of %d failed", trace, r.Workload, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace %s: %s reports %d metrics, want %d", trace, r.Workload, len(r.Metrics), len(want))
			}
			if trace == "0" && r.Metrics["latency_ms.p50"].Value <= 0 {
				t.Errorf("%s: latency p50 %v", r.Workload, r.Metrics["latency_ms.p50"].Value)
			}
			if trace == "1" && r.Metrics["trace.dropped"].Value != 0 {
				t.Errorf("%s: recorder dropped events", r.Workload)
			}
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
			t.Errorf("trace %s: last line %q is not the result object (%v)", trace, lines[len(lines)-1], err)
		}
	}
}
