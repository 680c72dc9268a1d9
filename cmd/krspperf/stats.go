package main

import (
	"math"
	"sort"
	"time"
)

// inf stands for the latency of a failed operation.
var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedOp is one operation of a loop: when it started (or, for a closed
// loop's rate, when it completed), how long it took, and whether its answer
// passed the certificate.
type timedOp struct {
	at, took time.Duration
	ok       bool
}

// latency is the operation's time in ms, +Inf when it failed.
func (op timedOp) latency() float64 {
	if !op.ok {
		return inf
	}
	return ms(op.took)
}

// medianRate splits a loop of length span into equal time blocks and
// returns the median over blocks of successful operations per second: per
// second of the operations' own time when busy is set (for a caller that
// also does untimed work between operations), else per second of the block.
// A burst of noise on the machine then moves only the blocks it overlaps.
func medianRate(ops []timedOp, blocks int, span time.Duration, busy bool) float64 {
	if blocks < 1 || span <= 0 {
		return 0
	}
	width := span / time.Duration(blocks)
	count := make([]int, blocks)
	took := make([]time.Duration, blocks)
	for _, op := range ops {
		b := min(int(op.at/width), blocks-1)
		took[b] += op.took
		if op.ok {
			count[b]++
		}
	}
	var rates []float64
	for b := range count {
		d := width
		if busy {
			d = took[b]
		}
		if d > 0 {
			rates = append(rates, float64(count[b])/d.Seconds())
		}
	}
	return median(rates)
}

// minBeyond is how many samples must lie above a reported percentile. A
// higher percentile rests on too few slow samples to repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, sorting
// xs in place, and whether at least minBeyond samples lie beyond it. Failed
// operations enter xs as +Inf, so they count as missing every limit.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// computed here match those computed from the JSON by other tools.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// Verdicts of a comparison between two sets of runs (choosing-metrics §6–8).
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric row of a base/head comparison.
type comparison struct {
	baseMedian, baseQ1, baseQ3 float64
	headMedian, headQ1, headQ3 float64
	// winFrac is the share of paired runs in which head reads better; ties
	// count for neither side.
	winFrac float64
	verdict string
}

// compareRuns judges head against base for one metric with direction better
// ("lower" or "higher") and regression bound (a share of base's median).
// Runs pair up by position, so both sides should list the same seeds in the
// same order.
//
// A gain needs head to win at least nine tenths of the pairs and the medians
// to differ by more than base's interquartile distance. Where base's spread
// exceeds the bound, a worse median cannot be told from noise: the row is
// unresolved unless every head run reads better than every base run. Else a
// median worse by more than the bound is a regression.
func compareRuns(base, head []float64, better string, bound float64) comparison {
	c := comparison{baseMedian: median(base), headMedian: median(head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	sign := 1.0 // positive when head is better
	if better == "lower" {
		sign = -1
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 {
		c.winFrac = float64(wins) / float64(pairs)
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	gain := sign * (c.headMedian - c.baseMedian)
	worse := 0.0
	if c.baseMedian != 0 {
		worse = -gain / math.Abs(c.baseMedian)
	}
	switch {
	case c.winFrac >= 0.9 && gain > c.baseQ3-c.baseQ1:
		c.verdict = verdictImproved
	case spread(base) > bound && !allBetter:
		c.verdict = verdictUnresolved
	case worse > bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictWithin
	}
	return c
}
