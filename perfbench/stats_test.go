package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refPercentile is the nearest-rank percentile by brute force over unsorted
// data: the smallest sample x with count(samples ≤ x) ≥ p·n/100, and the
// number of samples strictly above it.
func refPercentile(xs []float64, p float64) (v float64, beyond int) {
	v = math.Inf(1)
	for _, x := range xs {
		atOrBelow := 0
		for _, y := range xs {
			if y <= x {
				atOrBelow++
			}
		}
		if atOrBelow*10000 >= int(math.Round(p*100))*len(xs) && x < v {
			v = x
		}
	}
	for _, y := range xs {
		if y > v {
			beyond++
		}
	}
	return v, beyond
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := range 300 {
		n := 1 + r.IntN(400)
		xs := make([]float64, n)
		for i := range xs {
			// Coarse values make ties common.
			xs[i] = float64(r.IntN(50)) * 0.5
		}
		s := sortedCopy(xs)
		for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
			got := percentile(s, p)
			v, beyond := refPercentile(xs, p)
			if got.Value != v || got.Beyond != beyond || got.N != n {
				t.Fatalf("trial %d n=%d p%g: got %+v, want value %v with %d beyond", trial, n, p, got, v, beyond)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{99, false, 0, 0, 0},
		{100, true, 90, 90, 10},
		{105, true, 90, 95, 10},
		{999, true, 90, 900, 99},
		{1000, true, 99, 990, 10},
		{9999, true, 99, 9900, 99},
		{10000, true, 99.9, 9990, 10},
		{100000, true, 99.99, 99990, 10},
	} {
		got, ok := tail(seq(tc.n))
		if ok != tc.ok || (ok && (got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n)) {
			t.Errorf("n=%d: got %+v ok=%v, want p%g=%v with %d beyond (ok=%v)", tc.n, got, ok, tc.p, tc.value, tc.beyond, tc.ok)
		}
	}
	// Ties at the cut are not beyond it: 100 samples with the top 11 equal
	// leave 0 above p90.
	xs := seq(100)
	for i := 89; i < 100; i++ {
		xs[i] = 1000
	}
	if got, ok := tail(xs); ok {
		t.Errorf("tied top: got %+v, want no supported tail", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3, 9, 4}, 2, 4, 8},
		{[]float64{2.5, 2.5, 1, 8, 3.25, 3.25, 0.5, 10, 4}, 1.75, 3.25, 6},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	// median against the sorted middle, on random data of both parities.
	r := rand.New(rand.NewPCG(3, 4))
	for range 200 {
		xs := make([]float64, 1+r.IntN(50))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := slices.Clone(xs)
		slices.Sort(s)
		want := s[len(s)/2]
		if len(s)%2 == 0 {
			want = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
		if got := median(xs); got != want {
			t.Fatalf("median(%v) = %v, want %v", xs, got, want)
		}
		if len(xs) >= 2 {
			if _, q2, _ := quartiles(xs); q2 != want {
				t.Fatalf("quartiles middle cut %v, want the median %v", q2, want)
			}
		}
	}
}
