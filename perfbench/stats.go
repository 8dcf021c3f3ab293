package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p90 of fewer than 100 samples would rest on the one or
// two slowest ops and swing from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples:
// the smallest sample with at least p·n samples at or below it. It fails
// when fewer than minBeyond samples lie above that rank.
func percentile(samples []time.Duration, p float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p=%g of %d samples", p, n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

// medianFloat returns the median of xs (the mean of the two middle values
// for an even count). xs must be non-empty.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
