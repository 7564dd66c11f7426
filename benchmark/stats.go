package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of percentile p in a
// sample of n: the smallest rank with at least p percent of the sample
// at or below it.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9 % of 10000 at rank 9990: in floating point
	// the product lands a hair above it.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of an ascending
// sample, 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples ranked above percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the value is one outlier, not a tail.
const minBeyond = 10

// supportedTail returns the highest percentile of tailPercentiles with
// at least minBeyond samples beyond it, or 50 when the sample supports
// none of them.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank percentile p of an ascending
// sample of floats, 0 for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// summary is one metric over a run. Value is what is reported and
// compared; Windows are the same statistic taken over each window alone,
// and Min and Max say how far a single window strays.
type summary struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows"`
}

func sortedFloats(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// summarize reduces repeated values to their median. The median of an
// even count is the mean of the middle two.
func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := sortedFloats(values)
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Value: mid, Min: s[0], Max: s[len(s)-1], Windows: values}
}

// summarizeSlices reduces a run's slices, grouped by window, to
// percentile p of all of them; the per-window values are percentile p of
// each window's own slices.
func summarizeSlices(windows [][]float64, p float64) summary {
	var all, per []float64
	for _, w := range windows {
		all = append(all, w...)
		per = append(per, quantile(sortedFloats(w), p))
	}
	if len(all) == 0 {
		return summary{}
	}
	s := sortedFloats(per)
	return summary{Value: quantile(sortedFloats(all), p), Min: s[0], Max: s[len(s)-1], Windows: per}
}

// ratio is a/b, or 0 when b is 0: a share of nothing is reported as
// no share, never as NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
