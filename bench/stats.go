package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles a latency metric may report, lowest
// first. A metric named for one of them falls back down the ladder when the
// sample is too small to support it.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supportedPercentile returns the highest ladder percentile at or below want
// that still has at least ten samples beyond it in a sample of n. With fewer
// than twenty samples nothing above the median is supported.
func supportedPercentile(n int, want float64) float64 {
	best := 0.50
	for _, p := range percentileLadder {
		if p > want {
			break
		}
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p·n samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even-sized sample, so the
// median over rounds does not favour the slower of two middle rounds.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance driver uses for run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to exceed before a difference means anything.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
