// Package prof is the repository's wall-clock seam. The simulator's
// determinism contract — results are a pure function of (Config, seed) —
// is enforced by noclint's determinism rule, which forbids wall-clock
// reads under the result-producing packages. Self-metrics (cycles/s,
// phase profiles) still need real time, so this package concentrates the
// entire perimeter's wall-clock access into one function, Now, which the
// rule exempts by name. Everything under the deterministic roots that
// needs time takes it from here (or through an injected Clock), so a
// stray time.Now anywhere else — this package included — keeps failing
// lint.
package prof

import "time"

// Clock reads the current time. The profiler and the runtime
// self-metrics accept a Clock so tests can substitute a deterministic
// fake; production code passes nil and gets Now.
type Clock func() time.Time

// Now is the single sanctioned wall-clock read inside the deterministic
// perimeter. Its values feed self-metrics (cycles/s, phase profiles,
// heartbeat pacing) only — never a simulated quantity — which is why
// noclint's determinism rule exempts this function, and only it.
func Now() time.Time { return time.Now() }

// Or returns c when non-nil and Now otherwise, so call sites can accept
// an optional injected clock without branching at every read.
func Or(c Clock) Clock {
	if c != nil {
		return c
	}
	return Now
}
