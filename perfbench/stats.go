package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates the tail rule chooses from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any. A
// tail is only worth reporting when it rests on more than a sample or two.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. xs need not be sorted; it is not modified. It returns NaN
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// small tolerance keeps float error from pushing an exact rank such as
// 99.9% of 10000 up by one.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(n, rank))
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
