package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0, 1]); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 { return quantileSorted(sorted(xs), q) }

// quantileSorted is quantile for a sample already in ascending order.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the benchmark contract measures spreads with. It needs two or
// more values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder are the percentiles a timing's tail is reported at.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.99, 0.999}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it, as the choosing-metrics guide
// asks; with fewer than twenty samples that is the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// Integer arithmetic in tenths of a percent: 0.999 and friends
		// are not exact in binary.
		beyond := n * (1000 - int(math.Round(p*1000)))
		if beyond >= 10*1000 {
			best = p
		}
	}
	return best
}
