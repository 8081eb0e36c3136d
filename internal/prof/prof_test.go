package prof

import "testing"

// TestNowMonotonic pins the seam's basic contract: consecutive reads
// never go backwards (Go's time.Time carries a monotonic component).
func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b.Before(a) {
		t.Errorf("Now went backwards: %v then %v", a, b)
	}
}
