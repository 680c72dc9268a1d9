package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineJSON = `{
  "schema": "krspbench/1",
  "benchmarks": [
    {"name": "SolveN60K3", "allocs_per_op": 229},
    {"name": "BicameralFind", "allocs_per_op": 20}
  ]
}`

func TestGuardPasses(t *testing.T) {
	path := writeBaseline(t, baselineJSON)
	var out bytes.Buffer
	current := []record{
		{Name: "SolveN60K3", AllocsPerOp: 229},
		{Name: "BicameralFind", AllocsPerOp: 18}, // improvements are fine
		{Name: "Unlisted", AllocsPerOp: 9999},    // not in baseline: skipped
	}
	if err := guard(&out, path, current, false); err != nil {
		t.Fatalf("guard failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Unlisted") || !strings.Contains(out.String(), "skipped") {
		t.Fatalf("skip not reported:\n%s", out.String())
	}
}

func TestGuardFailsOnRegression(t *testing.T) {
	path := writeBaseline(t, baselineJSON)
	var out bytes.Buffer
	err := guard(&out, path, []record{{Name: "SolveN60K3", AllocsPerOp: 230}}, false)
	if err == nil {
		t.Fatal("regression not caught")
	}
	if !strings.Contains(err.Error(), "SolveN60K3: 230 allocs/op > baseline 229") {
		t.Fatalf("error: %v", err)
	}
}

// TestGuardBytesRule: B/op may rise by up to 5% of the baseline; beyond
// that the row fails even with allocs/op flat, in guard and in the
// -baseline diff alike.
func TestGuardBytesRule(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	within := []record{{Name: "Phase1ClassicN5k", AllocsPerOp: 270, BytesPerOp: 2310000}} // +5.0%
	beyond := []record{{Name: "Phase1ClassicN5k", AllocsPerOp: 270, BytesPerOp: 2310001}}
	for name, check := range map[string]func(io.Writer, string, []record, bool) error{
		"guard": guard, "baseline": diffBaseline,
	} {
		var out bytes.Buffer
		if err := check(&out, path, within, false); err != nil {
			t.Fatalf("%s: +5%% B/op rejected: %v\n%s", name, err, out.String())
		}
		err := check(&out, path, beyond, false)
		if err == nil {
			t.Fatalf("%s: B/op regression past 5%% not caught\n%s", name, out.String())
		}
		if !strings.Contains(err.Error(), "Phase1ClassicN5k: 2310001 B/op > baseline 2200000 + 5%") {
			t.Fatalf("%s: error: %v", name, err)
		}
	}
}

// TestStrictRowWithoutBaselineFails: a row that -run selects but the
// baseline lacks (a renamed or newly listed guard row) fails guard and the
// -baseline diff alike, naming the row, even beside a row that passes;
// without -run the same row is only reported.
func TestStrictRowWithoutBaselineFails(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	current := []record{
		{Name: "SolveN60K3", NsPerOp: 900000, AllocsPerOp: 229, BytesPerOp: 200000},
		{Name: "SolveLargeN5k", NsPerOp: 37000000, AllocsPerOp: 506, BytesPerOp: 2030000},
	}
	for name, check := range map[string]func(io.Writer, string, []record, bool) error{
		"guard": guard, "baseline": diffBaseline,
	} {
		var out bytes.Buffer
		if err := check(&out, path, current, false); err != nil {
			t.Fatalf("%s: full-suite run failed on an unbaselined row: %v\n%s", name, err, out.String())
		}
		out.Reset()
		err := check(&out, path, current, true)
		if err == nil {
			t.Fatalf("%s: -run row without a baseline passed\n%s", name, out.String())
		}
		if !strings.Contains(err.Error(), "SolveLargeN5k") || strings.Contains(err.Error(), "SolveN60K3") {
			t.Fatalf("%s: error should name only the unbaselined row: %v", name, err)
		}
	}
}

func TestGuardFailsOnEmptyIntersection(t *testing.T) {
	path := writeBaseline(t, baselineJSON)
	var out bytes.Buffer
	if err := guard(&out, path, []record{{Name: "Nope", AllocsPerOp: 1}}, false); err == nil {
		t.Fatal("empty intersection accepted")
	}
}

const baselineFullJSON = `{
  "schema": "krspbench/1",
  "benchmarks": [
    {"name": "SolveN60K3", "ns_per_op": 900000, "allocs_per_op": 229, "bytes_per_op": 200000},
    {"name": "Phase1ClassicN5k", "ns_per_op": 16000000, "allocs_per_op": 270, "bytes_per_op": 2200000}
  ]
}`

func TestBaselineDeltaTable(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	current := []record{
		{Name: "SolveN60K3", NsPerOp: 450000, AllocsPerOp: 173, BytesPerOp: 150000},
		{Name: "Phase1ClassicN5k", NsPerOp: 15000000, AllocsPerOp: 270, BytesPerOp: 2200000},
		{Name: "BrandNewRow", NsPerOp: 10, AllocsPerOp: 1, BytesPerOp: 8},
	}
	if err := diffBaseline(&out, path, current, false); err != nil {
		t.Fatalf("diffBaseline failed: %v\n%s", err, out.String())
	}
	text := out.String()
	// The table must carry the improvement as a negative ns/op delta, flag
	// rows absent from the baseline, and show a zero allocs delta.
	if !strings.Contains(text, "-50.0%") {
		t.Fatalf("ns/op delta missing:\n%s", text)
	}
	if !strings.Contains(text, "(new)") {
		t.Fatalf("new row not flagged:\n%s", text)
	}
	if !strings.Contains(text, "+0") {
		t.Fatalf("flat allocs delta missing:\n%s", text)
	}
}

func TestBaselineFailsOnAllocRegression(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	err := diffBaseline(&out, path, []record{
		{Name: "SolveN60K3", NsPerOp: 400000, AllocsPerOp: 230, BytesPerOp: 150000},
	}, false)
	if err == nil {
		t.Fatal("alloc regression not caught")
	}
	if !strings.Contains(err.Error(), "SolveN60K3: 230 allocs/op > baseline 229") {
		t.Fatalf("error: %v", err)
	}
	// A faster-but-allocating run must still fail: ns/op never excuses allocs.
	if !strings.Contains(out.String(), "-5") {
		t.Fatalf("table should still have printed:\n%s", out.String())
	}
}

func TestBaselineFailsOnEmptyIntersection(t *testing.T) {
	path := writeBaseline(t, baselineFullJSON)
	var out bytes.Buffer
	if err := diffBaseline(&out, path, []record{{Name: "Nope"}}, false); err == nil {
		t.Fatal("empty intersection accepted")
	}
}

func TestGuardFailsOnMissingOrBadBaseline(t *testing.T) {
	var out bytes.Buffer
	if err := guard(&out, "/nonexistent.json", nil, false); err == nil {
		t.Fatal("missing baseline accepted")
	}
	path := writeBaseline(t, "not json")
	if err := guard(&out, path, nil, false); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}
