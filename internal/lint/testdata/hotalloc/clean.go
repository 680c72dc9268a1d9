package golden

// SolveClean hoists scratch out of the loop and uses the Into kernel.
func SolveClean(xs []int64, rounds int) int {
	buf := make([]int64, len(xs))
	acc := make([]int64, 0, len(xs))
	n := 0
	for i := 0; i < rounds; i++ {
		r := SumInto(acc, xs)
		n += len(buf) + len(r)
	}
	return n
}

// SolveAnnotated documents a deliberate boundary allocation.
func SolveAnnotated(xs []int64) int {
	n := 0
	for i := 0; i < len(xs); i++ {
		out := make([]int64, i) //lint:allow hotalloc golden: deliberate per-iteration allocation
		n += len(out)
	}
	return n
}
