package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and its value — so a p99 is never read off a
// handful of outliers. With fewer than 40 samples no candidate
// qualifies and the result is (50, median).
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailCandidates {
		// idx is the first sample strictly beyond the percentile.
		idx := int(math.Ceil(float64(len(s)) * p / 100))
		if len(s)-idx >= 10 {
			return p, s[idx-1]
		}
	}
	return 50, median(s)
}

// geomean returns the geometric mean of the positive entries of xs; 0
// when there are none.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
