package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) without modifying xs. It is 0 for an empty slice.
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

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile: the count the choosing-metrics guide wants
// to be at least ten before a tail percentile is reported.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// relDiff is |a-b| as a share of their mean, the disagreement measure the
// -aa mode prints. Two zeros agree.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// medianDiff is the median of a[i]-b[i]: the two slices hold the same
// requests, measured at two levels.
func medianDiff(a, b []float64) float64 {
	d := make([]float64, min(len(a), len(b)))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// pct is the p-th percentile of unsorted samples.
func pct(l []float64, p float64) float64 {
	c := append([]float64(nil), l...)
	sort.Float64s(c)
	return percentile(c, p)
}
