package nocsim

import (
	"path/filepath"
	"testing"

	"nocsim/internal/obs"
)

// TestObsOverheadBudget is the CI guard on the telemetry layer's cost.
// The disabled path already differs from a build without the obs seam
// only by nil-sink branches and plain counter increments (benchmarked
// at well under the 5% budget against the pre-obs tree), and an ungated
// callback there is a nil dereference in any test without observers, not
// a cost. What can regress silently is the full-collector path — an
// accidental allocation or per-event work in a collector shows up here
// as a blown ratio. The
// bound is deliberately loose (2.5x, best-of-3) so scheduler noise on
// shared CI runners does not flake it; real regressions of that kind are
// order-of-magnitude.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	run := func(o obs.Options, watched bool) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			cfg := benchProfile().BaseConfig()
			cfg.Obs = o
			if watched {
				cfg.WatchdogCycles = 2000
				cfg.WatchdogOut = filepath.Join(t.TempDir(), "stall.json")
			}
			res, err := Run(cfg, "uniform", 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stalled {
				t.Fatal("benign overhead run flagged as stalled")
			}
			if cps := res.Runtime.CyclesPerSec; cps > best {
				best = cps
			}
		}
		return best
	}
	disabled := run(obs.Options{}, false)
	enabled := run(obs.Options{Trace: true, SamplePeriod: 100, Heatmap: true}, false)
	if disabled <= 0 || enabled <= 0 {
		t.Fatalf("degenerate rates: disabled %.0f, enabled %.0f cycles/s", disabled, enabled)
	}
	ratio := disabled / enabled
	t.Logf("cycles/s: disabled %.0f, enabled %.0f (%.2fx overhead)", disabled, enabled, ratio)
	if ratio > 2.5 {
		t.Errorf("full telemetry costs %.2fx (budget 2.5x): did a collector callback start allocating?", ratio)
	}
	// The armed watchdog — a beat every 128 cycles — shares the same
	// budget: it is meant to be left on for whole sweeps.
	watched := run(obs.Options{}, true)
	wratio := disabled / watched
	t.Logf("cycles/s: watchdog armed %.0f (%.2fx overhead)", watched, wratio)
	if wratio > 2.5 {
		t.Errorf("watchdog heartbeat costs %.2fx (budget 2.5x): did the beat gate break?", wratio)
	}
}

// TestAnatomyOverheadBudget bounds the anatomy collector's cost under the
// same regime as the full-collector path: 2.5x best-of-3, alternating so
// both paths sample the same host conditions. The anatomy path adds one
// map operation per lifecycle event of measured packets plus one Decision
// construction per (packet, router); a blown ratio means a callback or
// the decision walk started allocating.
func TestAnatomyOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	one := func(o obs.Options) float64 {
		cfg := benchProfile().BaseConfig()
		cfg.Obs = o
		res, err := Run(cfg, "uniform", 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if o.Anatomy && (res.Anatomy == nil || res.Anatomy.Packets == 0) {
			t.Fatal("anatomy enabled but no aggregate attached")
		}
		return res.Runtime.CyclesPerSec
	}
	var disabled, enabled float64
	for i := 0; i < 3; i++ {
		if cps := one(obs.Options{}); cps > disabled {
			disabled = cps
		}
		if cps := one(obs.Options{Anatomy: true}); cps > enabled {
			enabled = cps
		}
	}
	if disabled <= 0 || enabled <= 0 {
		t.Fatalf("degenerate rates: disabled %.0f, enabled %.0f cycles/s", disabled, enabled)
	}
	ratio := disabled / enabled
	t.Logf("cycles/s: disabled %.0f, anatomy %.0f (%.2fx overhead)", disabled, enabled, ratio)
	if ratio > 2.5 {
		t.Errorf("anatomy collection costs %.2fx (budget 2.5x): did an event callback start allocating?", ratio)
	}
}

// TestPhaseProfilerOverheadBudget bounds the phase profiler's cost. The
// design target is <=5% at the default sampling period (the profiler
// touches one cycle in 64), and quiet hosts measure well under that; the
// asserted bound is 1.5x so shared-runner scheduling noise cannot flake
// the suite while a real regression — per-cycle clock or allocation
// reads escaping the sampling gate, or an accidental ReadMemStats on the
// hot path — still lands far outside it. Runs alternate
// disabled/enabled (best of 3 each) so both paths sample the same host
// conditions.
func TestPhaseProfilerOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	one := func(o obs.Options) float64 {
		cfg := benchProfile().BaseConfig()
		cfg.Obs = o
		res, err := Run(cfg, "uniform", 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime.CyclesPerSec
	}
	var disabled, profiled float64
	for i := 0; i < 3; i++ {
		if cps := one(obs.Options{}); cps > disabled {
			disabled = cps
		}
		if cps := one(obs.Options{Profile: true}); cps > profiled {
			profiled = cps
		}
	}
	if disabled <= 0 || profiled <= 0 {
		t.Fatalf("degenerate rates: disabled %.0f, profiled %.0f cycles/s", disabled, profiled)
	}
	ratio := disabled / profiled
	t.Logf("cycles/s: disabled %.0f, profiled %.0f (%.2fx overhead, design target 1.05x)", disabled, profiled, ratio)
	if ratio > 1.5 {
		t.Errorf("phase profiler costs %.2fx (budget 1.5x): did sampling-gated reads escape onto the per-cycle path?", ratio)
	}
}
