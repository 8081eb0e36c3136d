package nocsim

import (
	"path/filepath"
	"testing"

	"nocsim/internal/obs"
)

// TestObsOverheadBudget is the CI guard on the telemetry layer's cost,
// one row per thing meant to be left on for whole runs: the full
// collector set, the latency anatomy and the armed watchdog. The
// disabled path already differs from a build without the obs seam only
// by nil-sink branches and plain counter increments, and an ungated
// callback there is a nil dereference in any test without observers, not
// a cost. What can regress silently is the enabled path — an accidental
// allocation or per-event work in a collector shows up here as a blown
// ratio. Each row alternates disabled and enabled runs, best of 3 each,
// so both sample the same host conditions. Each row's bound is twice the
// median of ten runs of this test on a 2-vCPU Xeon VM (collectors 1.38x,
// anatomy 1.30x, watchdog 1.03x; every ratio is in CHANGES.md), capped at
// 2.5x so that scheduler noise on shared CI runners does not flake it;
// real regressions of that kind are order-of-magnitude.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// cyclesPerSec runs the benchmark config once and returns its rate.
	cyclesPerSec := func(t *testing.T, o obs.Options, watched bool) float64 {
		cfg := benchProfile().Base
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
		if o.Anatomy && (res.Anatomy == nil || res.Anatomy.Packets == 0) {
			t.Fatal("anatomy enabled but no aggregate attached")
		}
		return res.Runtime.CyclesPerSec
	}
	for _, row := range []struct {
		name    string
		o       obs.Options
		watched bool
		bound   float64
		hint    string
	}{
		{"collectors", obs.Options{Trace: true, SamplePeriod: 100, Heatmap: true}, false, 2.5,
			"did a collector callback start allocating?"},
		{"anatomy", obs.Options{Anatomy: true}, false, 2.5,
			"did an event callback or the decision walk start allocating?"},
		// A beat every 128 cycles.
		{"watchdog", obs.Options{}, true, 2.05, "did the beat gate break?"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var disabled, enabled float64
			for i := 0; i < 3; i++ {
				disabled = max(disabled, cyclesPerSec(t, obs.Options{}, false))
				enabled = max(enabled, cyclesPerSec(t, row.o, row.watched))
			}
			if disabled <= 0 || enabled <= 0 {
				t.Fatalf("degenerate rates: disabled %.0f, enabled %.0f cycles/s", disabled, enabled)
			}
			ratio := disabled / enabled
			t.Logf("cycles/s: disabled %.0f, %s %.0f (%.2fx overhead)", disabled, row.name, enabled, ratio)
			if ratio > row.bound {
				t.Errorf("%s costs %.2fx (budget %.2fx): %s", row.name, ratio, row.bound, row.hint)
			}
		})
	}
}
