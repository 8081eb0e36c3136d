// Package stats provides the streaming statistics used by the simulator:
// running means, histograms with quantiles, and per-class latency
// accounting.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of values and reports moments and extremes.
// The zero value is ready to use.
type Summary struct {
	n        int64
	sum      float64
	sumSq    float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Var returns the population variance.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Reset clears the summary.
func (s *Summary) Reset() { *s = Summary{} }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f max=%.0f",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Histogram collects integer observations (e.g. cycle latencies) in exact
// counts up to a cap, aggregating the tail, and reports quantiles.
type Histogram struct {
	counts []int64
	over   int64 // observations >= len(counts)
	overS  *Summary
	total  int64
}

// NewHistogram returns a histogram with exact bins for values 0..cap-1.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		panic("stats: histogram cap must be positive")
	}
	return &Histogram{counts: make([]int64, cap), overS: &Summary{}}
}

// Add records one observation; negative values are clamped to 0.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= int64(len(h.counts)) {
		h.over++
		h.overS.Add(float64(v))
	} else {
		h.counts[v]++
	}
	h.total++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Quantile returns the q-quantile (0 <= q <= 1), or NaN for an empty
// histogram — an empty distribution has no quantiles, and returning 0
// would read as a real (excellent) latency. Values beyond the exact
// range are approximated by the tail mean.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	target := int64(q * float64(h.total-1))
	var cum int64
	for v, c := range h.counts {
		cum += c
		if cum > target {
			return float64(v)
		}
	}
	return h.overS.Mean()
}

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	sum += h.overS.Sum()
	return sum / float64(h.total)
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.over = 0
	h.overS.Reset()
	h.total = 0
}

// Ratio returns num/den, or 0 when den is zero — the shared guard for
// the rate and purity computations that would otherwise divide by zero
// on empty observation windows.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
