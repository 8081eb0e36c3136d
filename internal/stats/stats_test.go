package stats

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100)
	for v := int64(1); v <= 100; v++ {
		h.Add(v % 100)
	}
	if h.N() != 100 {
		t.Errorf("N = %d", h.N())
	}
	if q := h.Quantile(0.5); math.Abs(q-49.0) > 1.5 {
		t.Errorf("median = %v, want ~49.5", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 99 {
		t.Errorf("q1 = %v, want 99", q)
	}
}

func TestHistogramOverflowTail(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 9; i++ {
		h.Add(1)
	}
	h.Add(1000)
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("tail quantile = %v, want 1000 (tail mean)", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(10)
	h.Add(-5)
	if h.N() != 1 || h.Quantile(0.5) != 0 {
		t.Error("negative value not clamped to 0")
	}
}

func TestHistogramEmptyQuantileNaN(t *testing.T) {
	h := NewHistogram(10)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Errorf("empty Quantile(%v) = %v, want NaN", q, got)
		}
	}
	h.Add(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-element Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestHistogramSkewedQuantiles(t *testing.T) {
	// 99 observations at 1, one at 80: every quantile up to p98 is 1,
	// p99 and above hit the outlier.
	h := NewHistogram(100)
	for i := 0; i < 99; i++ {
		h.Add(1)
	}
	h.Add(80)
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("skewed median = %v, want 1", q)
	}
	if q := h.Quantile(0.98); q != 1 {
		t.Errorf("skewed p98 = %v, want 1", q)
	}
	if q := h.Quantile(1); q != 80 {
		t.Errorf("skewed p100 = %v, want 80", q)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio(6,3) = %v, want 2", got)
	}
	if got := Ratio(5, 0); got != 0 {
		t.Errorf("Ratio(5,0) = %v, want 0", got)
	}
	if got := Ratio(0, 0); got != 0 {
		t.Errorf("Ratio(0,0) = %v, want 0", got)
	}
	if got := Ratio(-4, 2); got != -2 {
		t.Errorf("Ratio(-4,2) = %v, want -2", got)
	}
}

// TestHistogramReset: a reset histogram, tail included, reads as a new
// one of the same bins.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int64{3, 5, 50, 70} {
		h.Add(v)
	}
	h.Reset()
	if h.N() != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("after Reset: N %d, median %v; want 0 and NaN", h.N(), h.Quantile(0.5))
	}
	h.Add(20)
	if got := h.Quantile(1); got != 20 {
		t.Errorf("tail after Reset reads %v, want 20 (the old tail forgotten)", got)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0) did not panic")
		}
	}()
	NewHistogram(0)
}
