package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank beyond a reported tail value.
const minBeyond = 10

// tailLadder are the percentiles a tail may be reported at, highest first.
// It stops at p99: on a host shared with other machines, the slowest 0.1%
// of sub-millisecond solves are the host's scheduling stalls (7–9 ms in
// some runs, 3–4 ms in others), not the program's work.
var tailLadder = []float64{99, 90, 75}

// tail is the highest percentile of tailLadder that still has minBeyond
// samples ranked beyond it (nearest rank). Under 40 samples no ladder
// percentile qualifies, and the median is reported with fewer samples
// beyond it; beyond says how many.
type tail struct {
	value      float64
	percentile float64
	beyond     int
	samples    int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
		if n-rank >= minBeyond {
			return tail{value: s[rank-1], percentile: p, beyond: n - rank, samples: n}
		}
	}
	i := (n - 1) / 2
	return tail{value: s[i], percentile: 50, beyond: n - 1 - i, samples: n}
}

// median of xs (mean of the middle pair for even n); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
