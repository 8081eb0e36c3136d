package sim

import (
	"reflect"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/traffic"
)

// anatomyRun runs one short simulation with the anatomy collector on and
// returns its result.
func anatomyRun(t *testing.T, alg string, rate float64) *Result {
	t.Helper()
	cfg := testConfig()
	cfg.Algorithm = alg
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
	cfg.Obs = obs.Options{Anatomy: true}
	pts, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), []float64{rate}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pts[0].Result
}

// TestAnatomyDoesNotChangeResults pins the anatomy collector's contract:
// like the profiler and the watchdog, enabling it must not alter a single
// simulated bit. The scrubbed sweeps must be bit-identical, and every
// anatomy-enabled run must actually carry a populated aggregate.
func TestAnatomyDoesNotChangeResults(t *testing.T) {
	rates := []float64{0.1, 0.3}
	for _, alg := range []string{"footprint", "dbar"} {
		cfg := testConfig()
		cfg.Algorithm = alg
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000

		bare, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.Options{Anatomy: true}
		anat, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range anat {
			if p.Result.Anatomy == nil || p.Result.Anatomy.Packets == 0 {
				t.Fatalf("%s: anatomy enabled but no aggregate attached", alg)
			}
		}
		if !reflect.DeepEqual(scrubPoints(bare), scrubPoints(anat)) {
			t.Errorf("%s: enabling the anatomy collector changed simulation results", alg)
		}
	}
}

// TestAnatomyDeterministicAcrossJobs extends the jobs-identity guarantee
// to the telemetry itself: the anatomy aggregate is simulated state, so
// it must be bit-identical at any -jobs value.
func TestAnatomyDeterministicAcrossJobs(t *testing.T) {
	rates := []float64{0.1, 0.3}
	cfg := testConfig()
	cfg.Algorithm = "footprint"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
	cfg.Obs = obs.Options{Anatomy: true}

	serial, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		s, p := serial[i].Result, par[i].Result
		if !reflect.DeepEqual(s.Anatomy, p.Anatomy) {
			t.Errorf("rate %.2f: anatomy differs across jobs:\nserial:   %+v\nparallel: %+v",
				serial[i].Rate, s.Anatomy, p.Anatomy)
		}
	}
}

// TestAnatomyLatencyClosure checks the telescoping identity on real runs:
// the component cycles, none negative, partition the summed end-to-end
// latency exactly, and the decomposed population is exactly the
// measured-and-delivered packets.
func TestAnatomyLatencyClosure(t *testing.T) {
	for _, alg := range []string{"footprint", "dbar", "oddeven", "dor"} {
		res := anatomyRun(t, alg, 0.3)
		a := res.Anatomy
		if a == nil || a.Packets == 0 {
			t.Fatalf("%s: no anatomy", alg)
		}
		var sum int64
		for _, c := range a.Components() {
			if c.Cycles < 0 {
				t.Errorf("%s: component %s is %d cycles; no wait is negative", alg, c.Name, c.Cycles)
			}
			sum += c.Cycles
		}
		if sum != a.LatencyCycles {
			t.Errorf("%s: components sum to %d cycles, want LatencyCycles %d (delta %d)",
				alg, sum, a.LatencyCycles, sum-a.LatencyCycles)
		}
		if a.Packets != res.MeasuredEjected {
			t.Errorf("%s: anatomy decomposed %d packets, run measured %d delivered",
				alg, a.Packets, res.MeasuredEjected)
		}
		if a.Hops == 0 || a.TotalGrants() < a.Hops {
			t.Errorf("%s: %d grants for %d hops — every traversal needs a prior grant",
				alg, a.TotalGrants(), a.Hops)
		}
	}
}

// TestAnatomyExercisedWithinStaticBound is the run-level invariant tying
// the runtime telemetry back to the paper's Equation 1: what a run
// exercised can never exceed what the algorithm statically allows. That
// every decision offers one port of the algorithm's static choice set is
// held where decisions are made, by routing's property tests.
func TestAnatomyExercisedWithinStaticBound(t *testing.T) {
	for _, alg := range []string{"footprint", "dbar", "oddeven", "dor"} {
		res := anatomyRun(t, alg, 0.3)
		a := res.Anatomy
		if a.Decisions == 0 {
			t.Fatalf("%s: no routing decisions recorded", alg)
		}
		if a.OfferedVCsSum > a.AdmissibleVCsSum {
			t.Errorf("%s: offered %d VCs over an admissible ceiling of %d",
				alg, a.OfferedVCsSum, a.AdmissibleVCsSum)
		}
		if pa := a.PortAdaptivenessExercised(); pa <= 0 || pa > 1 {
			t.Errorf("%s: exercised port adaptiveness %v outside (0, 1]", alg, pa)
		}
		if va := a.VCAdaptivenessExercised(); va < 0 || va > 1 {
			t.Errorf("%s: exercised VC adaptiveness %v outside [0, 1]", alg, va)
		}
	}
}

// TestOffPathConsumersReadTheStoredDecision runs one congested footprint
// simulation four ways — no consumer, lifecycle tracer, anatomy
// collector, both — and holds that the router's per-event and
// per-decision branches, which read the routing decision stored for the
// input VC, neither perturb the run nor each other: the scrubbed result
// is identical all four ways, the tracer records the same event sequence
// with the anatomy collector on or off, and the anatomy aggregate is the
// same with the tracer on or off.
func TestOffPathConsumersReadTheStoredDecision(t *testing.T) {
	run := func(o obs.Options) SweepPoint {
		t.Helper()
		cfg := testConfig()
		cfg.Algorithm = "footprint"
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
		cfg.Obs = o
		pts, err := LatencyThroughput(cfg, "transpose", traffic.FixedSize(1), []float64{0.45}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	bare := run(obs.Options{})
	traced := run(obs.Options{Trace: true})
	anat := run(obs.Options{Anatomy: true})
	both := run(obs.Options{Trace: true, Anatomy: true})

	if bare.Result.BlockEvents == 0 {
		t.Fatal("no blocked head flits; the run does not exercise re-evaluation")
	}
	want := scrubPoints([]SweepPoint{bare})
	for name, pt := range map[string]SweepPoint{"tracer": traced, "anatomy": anat, "both": both} {
		if !reflect.DeepEqual(want, scrubPoints([]SweepPoint{pt})) {
			t.Errorf("%s: off-path consumers changed the simulation result", name)
		}
	}
	if ev := traced.Result.Obs.Tracer.Events(); len(ev) == 0 {
		t.Error("tracer recorded no events")
	} else if !reflect.DeepEqual(ev, both.Result.Obs.Tracer.Events()) {
		t.Error("the anatomy collector changed the lifecycle event sequence")
	}
	if anat.Result.Anatomy == nil || anat.Result.Anatomy.Decisions == 0 {
		t.Error("anatomy collector saw no routing decisions")
	} else if !reflect.DeepEqual(anat.Result.Anatomy, both.Result.Anatomy) {
		t.Error("the lifecycle tracer changed the anatomy aggregate")
	}
}
