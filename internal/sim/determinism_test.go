package sim

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"nocsim/internal/traffic"
)

// determinismAlgorithms is every routing configuration of Figures 5-7:
// the engine's "identical at any -jobs" guarantee must hold for each.
var determinismAlgorithms = []string{
	"footprint", "dbar", "oddeven", "dor",
	"dbar+xordet", "oddeven+xordet", "dor+xordet",
}

// scrubPoints normalizes a sweep for bit-identity comparison: host-side
// fields (wall-clock runtime, collectors, anatomy) are cleared,
// and a NaN P99 (empty histogram) becomes a sentinel because NaN != NaN
// under reflect.DeepEqual. Everything else — latency summaries down to
// their unexported sums, throughput, blocking counters — must match
// exactly.
func scrubPoints(pts []SweepPoint) []SweepPoint {
	out := make([]SweepPoint, len(pts))
	for i, p := range pts {
		r := *p.Result
		r.Runtime = RuntimeStats{}
		r.Obs = nil
		r.Anatomy = nil
		r.Config = Config{}
		if math.IsNaN(r.P99) {
			r.P99 = -1
		}
		out[i] = SweepPoint{Rate: p.Rate, Result: &r}
	}
	return out
}

// TestSweepDeterministicAcrossJobs is the engine's golden test: the same
// latency-throughput sweep at -jobs=1 and -jobs=8 — and twice at 8, to
// catch scheduling-order leaks — produces bit-identical Result fields
// for every routing algorithm.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	rates := []float64{0.1, 0.3}
	for _, alg := range determinismAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			cfg.Algorithm = alg
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000

			serial, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 8)
			if err != nil {
				t.Fatal(err)
			}
			again, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 8)
			if err != nil {
				t.Fatal(err)
			}
			s, p, a := scrubPoints(serial), scrubPoints(par), scrubPoints(again)
			if !reflect.DeepEqual(s, p) {
				t.Errorf("jobs=1 vs jobs=8 differ:\nserial:   %+v\nparallel: %+v", dump(s), dump(p))
			}
			if !reflect.DeepEqual(p, a) {
				t.Errorf("two jobs=8 sweeps differ:\nfirst:  %+v\nsecond: %+v", dump(p), dump(a))
			}
		})
	}
}

// dump renders scrubbed points with their Results dereferenced so test
// failures show values, not pointers.
func dump(pts []SweepPoint) []Result {
	out := make([]Result, len(pts))
	for i, p := range pts {
		out[i] = *p.Result
	}
	return out
}

// TestSweepSeedSensitivity guards against the degenerate way to pass the
// determinism test: if every run collapsed onto one seed or ignored the
// base seed, jobs-identity would hold trivially. Distinct base seeds
// must produce different sweeps.
func TestSweepSeedSensitivity(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithm = "footprint"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
	rates := []float64{0.3}

	a, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed += 1
	b, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(scrubPoints(a), scrubPoints(b)) {
		t.Error("different base seeds produced identical sweeps — seed derivation is ignoring the base seed")
	}
}

// TestHotspotDeterministicAcrossJobs extends the golden guarantee to the
// Figure 9 harness (distinct generators, traffic classes and an 8x8
// mesh).
func TestHotspotDeterministicAcrossJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = "footprint"
	cfg.VCs = 4
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 800
	rates := []float64{0.1, 0.3}

	serial, err := HotspotCurve(cfg, 0.2, rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := HotspotCurve(cfg, 0.2, rates, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubPoints(serial), scrubPoints(par)) {
		t.Errorf("hotspot curve differs across jobs:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}

// TestMonitoringDoesNotChangeResults pins the rule that made label and
// seed-key separate identities: decorating the run labels and arming
// the watchdog (whose beat reads the fabric every few cycles and whose
// dump path is derived per run) must not alter a single simulated bit.
func TestMonitoringDoesNotChangeResults(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithm = "oddeven"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
	rates := []float64{0.1, 0.3}

	bare, err := LatencyThroughput(cfg, "transpose", traffic.FixedSize(1), rates, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RunLabel = "decorated label"
	cfg.WatchdogCycles = 50
	cfg.WatchdogOut = filepath.Join(t.TempDir(), "stall.json")
	monitored, err := LatencyThroughput(cfg, "transpose", traffic.FixedSize(1), rates, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubPoints(bare), scrubPoints(monitored)) {
		t.Error("a decorated label and an armed watchdog changed simulation results")
	}
}
