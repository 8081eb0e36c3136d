// Package stats provides the streaming statistics used by the simulator:
// running means, histograms with quantiles, and per-class latency
// accounting.
package stats

import "math"

// Summary accumulates a stream of values and reports their count and
// mean. The zero value is ready to use.
type Summary struct {
	n   int64
	sum float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
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

// Histogram collects integer observations (e.g. cycle latencies) in exact
// counts up to a cap, aggregating the tail, and reports quantiles.
type Histogram struct {
	counts []int64
	over   Summary // observations >= len(counts)
	total  int64
}

// NewHistogram returns a histogram with exact bins for values 0..cap-1.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		panic("stats: histogram cap must be positive")
	}
	return &Histogram{counts: make([]int64, cap)}
}

// Reset empties the histogram, keeping its bins.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.over, h.total = Summary{}, 0
}

// Add records one observation; negative values are clamped to 0.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= int64(len(h.counts)) {
		h.over.Add(float64(v))
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
	return h.over.Mean()
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
