// A wall-clock read scattered into engine code instead of flowing
// through the prof.Now seam. noclint must flag it even when the value
// only feeds a self-metric — the seam exists so these reads stay
// auditable in one named function.
package fixture

import "time"

// heartbeat stamps a progress update straight off the wall clock.
func heartbeat(cycles int64) float64 {
	elapsed := time.Since(time.Unix(0, 0))
	return float64(cycles) / elapsed.Seconds()
}
