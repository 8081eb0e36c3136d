// Engine code that takes an injected clock and calls it. Calls through
// a function value are not time.Now and pass the rule as they are — a
// test can substitute a fake clock, production would wire prof.Now.
package fixture

import "time"

// clock is an injected wall-clock reader.
type clock func() time.Time

// profiler accumulates wall time through the seam only.
type profiler struct {
	now   clock
	start time.Time
}

func (p *profiler) begin()       { p.start = p.now() }
func (p *profiler) nanos() int64 { return p.now().Sub(p.start).Nanoseconds() }
