// Loaded as nocsim/internal/prof itself: determinism exempts the
// function Now of that package and nothing else in it, so the second
// wall-clock read below is the fixture's one finding.
package prof

import "time"

// Now mirrors the module's sanctioned wall-clock seam.
func Now() time.Time { return time.Now() }

// Elapsed reads the clock beside the seam instead of through it.
func Elapsed(since time.Time) time.Duration { return time.Since(since) }
