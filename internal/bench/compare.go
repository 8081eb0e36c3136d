package bench

import (
	"fmt"
	"io"
	"strings"
)

// Tolerances are the fractional regression budgets of the perf gate.
// Each metric may be worse than the predecessor by up to its tolerance;
// beyond that the comparison reports a regression. Wall-clock metrics
// (cycles/s) need wide budgets — CI hosts differ from the machines that
// generated committed reports — while allocation counts are
// machine-independent and gate tightly.
type Tolerances struct {
	// CyclesPerSec is the allowed fractional drop in engine cycles/s
	// (lower is worse).
	CyclesPerSec float64
	// Allocs is the allowed fractional growth in engine heap
	// allocations and benchmark allocs/op (higher is worse).
	Allocs float64
	// Bytes is the allowed fractional growth in engine heap bytes and
	// benchmark B/op (higher is worse).
	Bytes float64
}

// DefaultTolerances suit a local same-machine comparison: generous on
// wall clock, tight on allocation counts.
func DefaultTolerances() Tolerances {
	return Tolerances{CyclesPerSec: 0.25, Allocs: 0.10, Bytes: 0.10}
}

// Delta is one gated metric comparison.
type Delta struct {
	Metric string  // e.g. "engine cycles/s", "Figure5Uniform allocs/op"
	Old    float64 // predecessor value
	New    float64 // newest value
	// Change is the signed fractional move in the "worse" direction:
	// positive means worse (slower, or more allocation), negative means
	// better. A Change above the metric's tolerance is a regression.
	Change    float64
	Tolerance float64
	Regressed bool
	// Info marks metrics reported for context but never gated
	// (ns/op depends on -benchtime and host load).
	Info bool
}

// Comparison is the result of gating a newest report against its
// predecessor.
type Comparison struct {
	OldPath, NewPath string
	Deltas           []Delta
	// Broken collects hard failures that no tolerance excuses: the
	// parallel sweep losing determinism, or a gated metric disappearing
	// from the newest report.
	Broken []string
}

// Regressions returns the deltas that exceeded their tolerance.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the newest report passes the gate.
func (c *Comparison) OK() bool {
	return len(c.Broken) == 0 && len(c.Regressions()) == 0
}

// frac returns the fractional change from old to new in the direction
// where positive = worse. lowerWorse says whether a *decrease* is the
// bad direction (throughput metrics).
func frac(old, new float64, lowerWorse bool) float64 {
	if old == 0 {
		return 0
	}
	if lowerWorse {
		return (old - new) / old
	}
	return (new - old) / old
}

// Compare gates the newest report against its predecessor. Gated
// metrics: engine cycles/s (lower = worse), engine heap allocs and
// bytes, per-benchmark allocs/op and B/op, and the parallel sweep's
// determinism bit (hard failure if it turns false). ns/op and speedup
// are reported as informational only — the first depends on -benchtime
// and host load, the second is meaningless on degenerate hosts.
func Compare(oldR, newR *Report, tol Tolerances) *Comparison {
	c := &Comparison{}

	add := func(metric string, old, new float64, tolerance float64, lowerWorse, info bool) {
		if old == 0 && new == 0 {
			return
		}
		d := Delta{Metric: metric, Old: old, New: new, Tolerance: tolerance, Info: info}
		d.Change = frac(old, new, lowerWorse)
		d.Regressed = !info && d.Change > tolerance
		c.Deltas = append(c.Deltas, d)
	}

	// Engine reference run: the simulator's own speed and footprint.
	add("engine cycles/s", oldR.Engine.CyclesPerSec, newR.Engine.CyclesPerSec, tol.CyclesPerSec, true, false)
	add("engine heap allocs", float64(oldR.Engine.HeapAllocs), float64(newR.Engine.HeapAllocs), tol.Allocs, false, false)
	add("engine heap bytes", float64(oldR.Engine.HeapAllocBytes), float64(newR.Engine.HeapAllocBytes), tol.Bytes, false, false)

	// Parallel sweep: determinism is non-negotiable; speedup is context.
	if oldR.Parallel.Identical && !newR.Parallel.Identical {
		c.Broken = append(c.Broken,
			"parallel sweep no longer deterministic: serial and parallel runs diverged")
	}
	if oldR.Parallel.Runs > 0 && newR.Parallel.Runs > 0 {
		add("parallel speedup", oldR.Parallel.Speedup, newR.Parallel.Speedup, 0, true, true)
	}

	// Per-benchmark allocation gates, matched by name. A benchmark
	// present before but missing now is a hard failure — silently
	// dropping a gated benchmark would let regressions hide.
	newBy := map[string]Bench{}
	for _, b := range newR.Benchmarks {
		newBy[b.Name] = b
	}
	for _, ob := range oldR.Benchmarks {
		nb, ok := newBy[ob.Name]
		if !ok {
			c.Broken = append(c.Broken,
				fmt.Sprintf("benchmark %s present in the predecessor but missing from the newest report", ob.Name))
			continue
		}
		add(ob.Name+" allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, tol.Allocs, false, false)
		add(ob.Name+" B/op", ob.BytesPerOp, nb.BytesPerOp, tol.Bytes, false, false)
		add(ob.Name+" ns/op", ob.NsPerOp, nb.NsPerOp, 0, false, true)
	}
	return c
}

// WriteText renders the comparison as an aligned table with a verdict
// line, suitable for terminals and CI logs.
func (c *Comparison) WriteText(w io.Writer) {
	fmt.Fprintf(w, "perfgate: %s -> %s\n", c.OldPath, c.NewPath)
	fmt.Fprintf(w, "%-34s %14s %14s %9s %8s  %s\n", "metric", "old", "new", "change", "budget", "verdict")
	for _, d := range c.Deltas {
		verdict := "ok"
		budget := fmt.Sprintf("%.0f%%", 100*d.Tolerance)
		switch {
		case d.Info:
			verdict, budget = "info", "-"
		case d.Regressed:
			verdict = "REGRESSED"
		}
		fmt.Fprintf(w, "%-34s %14.4g %14.4g %+8.1f%% %8s  %s\n",
			d.Metric, d.Old, d.New, 100*d.Change, budget, verdict)
	}
	for _, b := range c.Broken {
		fmt.Fprintf(w, "BROKEN: %s\n", b)
	}
}

// WriteMarkdown renders the comparison as a GitHub-flavored markdown
// table for CI job summaries, followed by the newest report's phase
// profile when present.
func (c *Comparison) WriteMarkdown(w io.Writer, newR *Report) {
	fmt.Fprintf(w, "### Perf gate: `%s` vs `%s`\n\n", c.NewPath, c.OldPath)
	fmt.Fprintln(w, "| Metric | Old | New | Change | Budget | Verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	for _, d := range c.Deltas {
		verdict, budget := "ok", fmt.Sprintf("%.0f%%", 100*d.Tolerance)
		switch {
		case d.Info:
			verdict, budget = "info", "—"
		case d.Regressed:
			verdict = "**REGRESSED**"
		}
		fmt.Fprintf(w, "| %s | %.4g | %.4g | %+.1f%% | %s | %s |\n",
			d.Metric, d.Old, d.New, 100*d.Change, budget, verdict)
	}
	for _, b := range c.Broken {
		fmt.Fprintf(w, "\n**BROKEN**: %s\n", b)
	}
	if pp := newR.Engine.Profile; pp != nil {
		fmt.Fprintf(w, "\n#### Engine phase profile (%d sampled cycles, every %d)\n\n",
			pp.SampledCycles, pp.SampleEvery)
		fmt.Fprintln(w, "| Phase | Time (ms) | Share | Alloc (KB) | Allocs |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
		for _, ph := range pp.Phases {
			fmt.Fprintf(w, "| %s | %.2f | %.1f%% | %.1f | %d |\n",
				ph.Phase, float64(ph.Nanos)/1e6, 100*ph.TimeShare,
				float64(ph.AllocBytes)/1024, ph.Allocs)
		}
		fmt.Fprintf(w, "\nGC: %d cycles, %.1f ms paused, %.1f MB allocated (%d objects)\n",
			pp.GC.NumGC, float64(pp.GC.PauseTotalNanos)/1e6,
			float64(pp.GC.TotalAllocBytes)/(1<<20), pp.GC.Mallocs)
	}
	if newR.Parallel.Degenerate() {
		gm := newR.Parallel.GOMAXPROCS
		if gm == 0 {
			gm = newR.Parallel.CPUs
		}
		fmt.Fprintf(w, "\n> Parallel speedup is **degenerate** on this host "+
			"(GOMAXPROCS %d < jobs %d): the ratio measures time-slicing, not scaling.\n",
			gm, newR.Parallel.Jobs)
	}
}

// Summary returns a one-line verdict.
func (c *Comparison) Summary() string {
	if c.OK() {
		return fmt.Sprintf("perfgate: PASS (%d metrics within budget)", len(c.Deltas))
	}
	var parts []string
	if n := len(c.Regressions()); n > 0 {
		parts = append(parts, fmt.Sprintf("%d regressed", n))
	}
	if n := len(c.Broken); n > 0 {
		parts = append(parts, fmt.Sprintf("%d broken", n))
	}
	return "perfgate: FAIL (" + strings.Join(parts, ", ") + ")"
}
