package main

import (
	"math"
	"sort"
)

// sloLimitMS is the latency limit of the paced phase: a request
// answered 200 within this many milliseconds of its due time meets the
// SLO; anything else (late, failed, refused, unsent) misses it.
const sloLimitMS = 100.0

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule. It returns NaN on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values on an
// even count). It returns NaN on an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// supported reports whether a sample of n values supports the p-th
// percentile: at least ten samples must lie beyond it. p50 needs 20
// samples, p95 200.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// latencySummary is a timing reported with its sample count. A
// percentile the sample does not support is NaN and is not emitted.
type latencySummary struct {
	N             int
	P50, P95, Max float64
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: math.NaN(), P95: math.NaN(), Max: math.NaN()}
	if len(s) == 0 {
		return out
	}
	out.Max = s[len(s)-1]
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{50, &out.P50}, {95, &out.P95}} {
		if supported(len(s), q.p) {
			*q.dst = percentile(s, q.p)
		}
	}
	return out
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance rule for the benchmark's own noise is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
