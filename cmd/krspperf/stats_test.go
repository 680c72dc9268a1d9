package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if v, _ := percentile(xs, 0.5); v != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", v)
	}
	if v, _ := percentile(xs, 0.9); v != 5 {
		t.Errorf("p90 of 1..5 = %v, want 5 (rank ⌈4.5⌉ = 5)", v)
	}
	if v, _ := percentile(xs, 0.2); v != 1 {
		t.Errorf("p20 of 1..5 = %v, want 1", v)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{99, false}, {100, true}, {1000, true}, {10, false}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, 0.9); ok != tc.ok {
			t.Errorf("p90 of %d samples: ok = %v, want %v", tc.n, ok, tc.ok)
		}
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, inf, inf}
	if v, _ := percentile(xs, 0.9); !math.IsInf(v, 1) {
		t.Errorf("p90 with two of ten failed = %v, want +Inf", v)
	}
	if v, _ := percentile(xs, 0.5); v != 5 {
		t.Errorf("p50 with two of ten failed = %v, want 5", v)
	}
	if finite(inf) != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want MaxFloat64", finite(inf))
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// extrapolates past the data when there are few points.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	same := []float64{100, 100, 100, 101, 101, 99, 99, 100, 102, 98}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"faster", base, faster, "lower", verdictImproved},
		{"slower", base, slower, "lower", verdictRegressed},
		{"same", base, same, "lower", verdictWithin},
		{"higher is better", base, slower, "higher", verdictImproved},
		{"noisy base", noisy, slower, "lower", verdictUnresolved},
	} {
		if got := compareRuns(tc.base, tc.head, tc.better, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
