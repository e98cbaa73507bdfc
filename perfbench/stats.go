package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (rank p/100·(n−1)); NaN for no
// samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly like Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), which is how run-to-run spread is
// judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// div is a/b for per-layer metrics, 0 when there was nothing to divide
// by (a layer the phase never reached) or a is NaN (no samples).
func div(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
