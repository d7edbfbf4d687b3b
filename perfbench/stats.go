package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one outlier.
const minBeyond = 10

// tailPermille lists the percentiles the benchmark may report, in permille,
// highest first.
var tailPermille = []int{999, 990, 900, 500}

// tailPercentile returns the highest reportable percentile (99.9, 99, 90 or
// 50) that has at least minBeyond of n samples beyond it, and false when
// not even the median has.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailPermille {
		if n*(1000-q) >= minBeyond*1000 {
			return float64(q) / 10, true
		}
	}
	return 0, false
}

// supports reports whether n samples are enough to report percentile p.
func supports(n int, p float64) bool {
	tail, ok := tailPercentile(n)
	return ok && tail >= p
}

// percentile returns the nearest-rank p-th percentile of sorted, which must
// be in ascending order; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of v (the mean of the middle pair for an even
// count) without reordering v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartiles of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method, which
// extrapolates for very small samples); both are v[0] for fewer than two
// values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
