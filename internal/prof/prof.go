// Package prof is the repository's wall-clock seam. The simulator's
// determinism contract — results are a pure function of (Config, seed) —
// is enforced by noclint's determinism rule, which forbids wall-clock
// reads under the result-producing packages. Self-metrics (cycles/s)
// still need real time, so this package concentrates the entire
// perimeter's wall-clock access into one function, Now, which the rule
// exempts by name. Everything under the deterministic roots that needs
// time takes it from here, so a stray time.Now anywhere else — this
// package included — keeps failing lint.
package prof

import "time"

// Now is the single sanctioned wall-clock read inside the deterministic
// perimeter. Its values feed self-metrics (wall seconds, cycles/s) only —
// never a simulated quantity — which is why noclint's determinism rule
// exempts this function, and only it.
func Now() time.Time { return time.Now() }
