package main

import (
	"math"
	"sort"
)

// tailSamples is the number of samples a reported percentile must have
// beyond it: a p90 needs at least 100 samples, a p99 at least 1000.
const tailSamples = 10

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has at
// least tailSamples samples beyond it in a sample of size n, and false when
// even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= tailSamples-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of xs (not modified);
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the p-th percentile of xs when the sample supports it
// (tailPercentile >= p); otherwise it falls back to the highest supported
// percentile, or the median for tiny samples, and returns that percentile
// so the caller can say what was reported.
func tail(xs []float64, p float64) (value, reported float64) {
	got, ok := tailPercentile(len(xs))
	switch {
	case !ok:
		return median(xs), 50
	case got >= p:
		return percentile(xs, p), p
	default:
		return percentile(xs, got), got
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
