package main

import (
	"math"
	"slices"
)

// tailLadder is the percentile ladder a tail is picked from, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// pct is one reported percentile: its level, value, the sample count it was
// taken over, and how many samples lie strictly above the value.
type pct struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank percentile p (0–100] of sorted, an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it. It is exact: the value is always one of the samples.
func percentile(sorted []float64, p float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{P: p}
	}
	// The rank is ceil(p·n/100), in integers of hundredths of a percent so
	// that p90 of 100 samples is rank 90, not 91 by a rounding error.
	hp := int(math.Round(p * 100))
	r := min(max((hp*n+9999)/10000, 1), n)
	v := sorted[r-1]
	above := n - r
	for above > 0 && sorted[n-above] == v { // ties with the value are not beyond it
		above--
	}
	return pct{P: p, Value: v, N: n, Beyond: above}
}

// tail returns the highest ladder percentile of sorted that has at least
// minBeyond samples above it; ok is false when even p90 lacks them.
func tail(sorted []float64) (pct, bool) {
	for _, p := range tailLadder {
		if pc := percentile(sorted, p); pc.Beyond >= minBeyond {
			return pc, true
		}
	}
	return pct{}, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle of xs (the mean of the two middles for an even
// count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method): the i-th cut sits at position i·(n+1)/4 of the
// sorted data, interpolating between neighbours. Needs at least 2 values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
