// Package golden is mounted at repro/internal/core/golden by the analyzer
// self-tests: a solve-path package whose Solve* functions root the hotalloc
// reachability analysis.
package golden

// SumInto is the workspace variant of Sum.
func SumInto(dst []int64, xs []int64) []int64 {
	dst = dst[:0]
	var total int64
	for _, x := range xs {
		total += x
	}
	return append(dst, total)
}

// Sum is the allocating convenience wrapper.
func Sum(xs []int64) []int64 {
	return SumInto(nil, xs)
}

// Solve allocates per iteration.
func Solve(xs []int64, rounds int) int {
	n := 0
	for i := 0; i < rounds; i++ {
		r := Sum(xs)
		buf := make([]int64, len(xs))
		var acc []int64
		acc = append(acc, r...)
		n += len(buf) + len(acc)
	}
	return n
}
