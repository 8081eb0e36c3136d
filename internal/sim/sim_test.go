package sim

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/obs"
	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/traffic"
)

// testConfig returns a fast configuration for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VCs = 4
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	cfg.DrainCycles = 5000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Height = -1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = 33 },
		func(c *Config) { c.BufDepth = 0 },
		// Buffer occupancy and credits are bytes.
		func(c *Config) { c.BufDepth = router.MaxBufDepth + 1 },
		func(c *Config) { c.Speedup = 0 },
		func(c *Config) { c.Algorithm = "" },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		// A ring past the maximum would panic in obs.NewTracer.
		func(c *Config) { c.Obs.TraceCapacity = obs.MaxTraceCapacity + 1 },
		// A slow endpoint that is not on the mesh would be silently
		// ignored, and an interval below 1 silently run at full speed.
		func(c *Config) { c.SlowEndpoints = map[int]int{99: 4} },
		func(c *Config) { c.SlowEndpoints = map[int]int{-1: 4} },
		func(c *Config) { c.SlowEndpoints = map[int]int{3: 0} },
		func(c *Config) { c.SlowEndpoints = map[int]int{3: -2} },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		} else if !strings.HasPrefix(err.Error(), "sim: ") {
			t.Errorf("case %d: error %q does not start with \"sim: \"", i, err)
		}
	}
	good.SlowEndpoints = map[int]int{0: 1, 63: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("slow endpoints on the mesh with intervals >= 1 rejected: %v", err)
	}
}

// TestValidateNamesLowestBadSlowEndpoint: with two bad slow endpoints,
// Validate names the lower node id every time, not whichever one map
// iteration reaches first.
func TestValidateNamesLowestBadSlowEndpoint(t *testing.T) {
	for _, c := range []struct {
		slow map[int]int
		want string
	}{
		{map[int]int{70: 4, 99: 4, 2: 1}, "sim: slow endpoint 70 is not a node of the 8x8 mesh"},
		{map[int]int{9: 0, 5: -1, 40: 2}, "sim: slow endpoint 5 needs a consume interval >= 1, have -1"},
		{map[int]int{-3: 2, 12: 0}, "sim: slow endpoint -3 is not a node of the 8x8 mesh"},
	} {
		cfg := DefaultConfig()
		cfg.SlowEndpoints = c.slow
		for i := 0; i < 50; i++ {
			if err := cfg.Validate(); err == nil || err.Error() != c.want {
				t.Fatalf("%v, call %d: got %v, want %q", c.slow, i, err, c.want)
			}
		}
	}
}

// TestNewChecksEscapeVC: an algorithm that reserves VC 0 as its escape
// channel cannot run on one VC; New must say so instead of letting
// router construction panic. Algorithms without an escape VC run on one.
func TestNewChecksEscapeVC(t *testing.T) {
	for _, tc := range []struct {
		alg string
		ok  bool
	}{
		{"footprint", false},
		{"dbar", false},
		{"dbar+xordet", false},
		{"dor", true},
		{"oddeven", true},
	} {
		cfg := testConfig()
		cfg.Algorithm = tc.alg
		cfg.VCs = 1
		res, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.05)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s on 1 VC: want an error", tc.alg)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s on 1 VC: %v", tc.alg, err)
		} else if res.MeasuredEjected == 0 {
			t.Errorf("%s on 1 VC: no packets delivered", tc.alg)
		}
	}
	cfg := testConfig()
	cfg.VCs = 1
	cfg.AlgFactory = func() routing.Algorithm { return routing.NewFootprint() }
	if _, err := New(cfg); err == nil {
		t.Error("AlgFactory footprint on 1 VC: want an error")
	}
}

func TestNewRejectsUnknownAlgorithm(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithm = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestLowLoadAccounting(t *testing.T) {
	cfg := testConfig()
	res, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("low load must be stable")
	}
	if res.Offered < 0.07 || res.Offered > 0.13 {
		t.Errorf("offered = %v, want ~0.1", res.Offered)
	}
	// At low load accepted tracks offered.
	if res.Accepted < 0.8*res.Offered {
		t.Errorf("accepted %v far below offered %v", res.Accepted, res.Offered)
	}
	if res.MeasuredEjected != res.Measured {
		t.Errorf("ejected %d of %d measured", res.MeasuredEjected, res.Measured)
	}
	lat := res.AvgLatency(flit.ClassBackground)
	if lat < 3 || lat > 30 {
		t.Errorf("zero-ish-load latency %v implausible on 4x4", lat)
	}
	if res.P99 < lat {
		t.Errorf("p99 %v below mean %v", res.P99, lat)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	cfg := testConfig()
	low, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgLatency(flit.ClassBackground) <= low.AvgLatency(flit.ClassBackground) {
		t.Errorf("latency did not grow with load: %v -> %v",
			low.AvgLatency(flit.ClassBackground), high.AvgLatency(flit.ClassBackground))
	}
}

func TestOverloadDetected(t *testing.T) {
	cfg := testConfig()
	cfg.DrainCycles = 2000
	// Bit-complement sends every flit across the bisection: a 4x4 mesh
	// has 4 bisection links per direction shared by 8 sources, so the
	// capacity bound is 0.5 flits/node/cycle and rate 0.95 must saturate.
	res, err := RunLoad(cfg, "bitcomp", traffic.FixedSize(1), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !Saturated(res, 10) {
		t.Errorf("rate 0.95 bitcomp should saturate a 4x4 mesh: offered %.3f, accepted %.3f, %d of %d measured packets ejected",
			res.Offered, res.Accepted, res.MeasuredEjected, res.Measured)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := testConfig()
	a, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency(flit.ClassBackground) != b.AvgLatency(flit.ClassBackground) ||
		a.Accepted != b.Accepted || a.Measured != b.Measured {
		t.Errorf("same seed, different results:\n%v\n%v", a, b)
	}
	cfg.Seed = 2
	c, err := RunLoad(cfg, "uniform", traffic.FixedSize(1), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Measured == c.Measured && a.AvgLatency(flit.ClassBackground) == c.AvgLatency(flit.ClassBackground) {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestLatencyThroughputCurve(t *testing.T) {
	cfg := testConfig()
	pts, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), []float64{0.05, 0.2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Rate != 0.05 || pts[1].Rate != 0.2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[1].Result.AvgLatency(flit.ClassBackground) < pts[0].Result.AvgLatency(flit.ClassBackground) {
		t.Error("curve not monotone at these loads")
	}
}

func TestSaturationCriterion(t *testing.T) {
	// Unstable is always saturated.
	r := &Result{Stable: false}
	if !Saturated(r, 10) {
		t.Error("unstable must be saturated")
	}
	// Throughput collapse.
	r = &Result{Stable: true, Offered: 0.5, Accepted: 0.4}
	if !Saturated(r, 1e9) {
		t.Error("accepted << offered must be saturated")
	}
	// Healthy point.
	r = &Result{Stable: true, Offered: 0.2, Accepted: 0.2}
	if Saturated(r, 10) {
		t.Error("healthy point misclassified")
	}
}

func TestSaturationThroughputSearch(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 600, 2000
	sr, err := SaturationThroughput(cfg, "uniform", traffic.FixedSize(1), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Throughput < 0.1 || sr.Throughput > 0.9 {
		t.Errorf("4x4 uniform saturation throughput %v implausible", sr.Throughput)
	}
	if sr.Runs[0].AvgLatency(flit.ClassBackground) <= 0 {
		t.Error("no zero-load latency")
	}
	if len(sr.Runs) < 3 {
		t.Errorf("bisection did too little work: %d evals", len(sr.Runs))
	}
}

func TestSaturationThroughputBadTolerance(t *testing.T) {
	if _, err := SaturationThroughput(testConfig(), "uniform", traffic.FixedSize(1), 0); err == nil {
		t.Error("want error for zero tolerance")
	}
}

// TestSaturationProbeWithoutTrafficIsAnError: shuffle on two nodes maps
// each node to itself, so the pattern is defined and silent. With no
// packet measured the criterion can never fire; the search must say so
// instead of walking to its upper bound and reporting that.
func TestSaturationProbeWithoutTrafficIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Width, cfg.Height = 2, 1
	probe, err := RunLoad(cfg, "shuffle", traffic.FixedSize(1), probeRate)
	if err != nil || probe.Measured != 0 {
		t.Fatalf("fixture: shuffle on 2 nodes measured %+v, err %v; want a silent run", probe, err)
	}
	sr, err := SaturationThroughput(cfg, "shuffle", traffic.FixedSize(1), 0.05)
	if err == nil || !strings.Contains(err.Error(), "measured no packet") {
		t.Errorf("SaturationThroughput = %+v, %v; want the no-packet error", sr, err)
	}
}

// TestSaturationMatrixDrainsOrReports is the ROADMAP's saturation matrix
// in reduced form: every routing algorithm under every synthetic
// pattern on a 4x4, bisected at a coarse tolerance and then overloaded at
// 1.2x the throughput found, with the watchdog armed throughout. Drain or
// report, never hang: every run comes back within its cycle budget, and
// none may trip the watchdog — a deadlock introduced later fails here
// with the path of its fabric snapshot instead of a test timeout.
func TestSaturationMatrixDrainsOrReports(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 400, 1500
	cfg.WatchdogCycles = 400
	cfg.WatchdogOut = filepath.Join(t.TempDir(), "stall.json")
	budget := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	for _, alg := range routing.Names() {
		for _, pattern := range []string{"uniform", "transpose", "shuffle"} {
			cfg.Algorithm = alg
			sr, err := SaturationThroughput(cfg, pattern, traffic.FixedSize(1), 0.1)
			if err != nil {
				t.Errorf("%s/%s: %v", alg, pattern, err)
				continue
			}
			over, err := RunLoad(cfg, pattern, traffic.FixedSize(1), min(1, 1.2*sr.Throughput))
			if err != nil {
				t.Errorf("%s/%s at 1.2x %.3f: %v", alg, pattern, sr.Throughput, err)
				continue
			}
			for _, r := range append(sr.Runs, over) {
				if r.Stalled {
					t.Errorf("%s stalled (snapshot %s)", r.Config.RunLabel, r.Config.StallPath())
				}
				if r.Runtime.Cycles > budget {
					t.Errorf("%s ran %d cycles, budget %d", r.Config.RunLabel, r.Runtime.Cycles, budget)
				}
			}
		}
	}
}

// TestSlowEndpointCreatesEndpointCongestion models Section 2's second
// endpoint-congestion source: an endpoint whose ejection rate is half the
// port bandwidth saturates under load a normal endpoint absorbs.
func TestSlowEndpointCreatesEndpointCongestion(t *testing.T) {
	base := testConfig()
	run := func(slow map[int]int) *Result {
		cfg := base
		cfg.SlowEndpoints = slow
		gen := &traffic.Generator{
			Nodes:   []int{4, 12},
			Pattern: traffic.Permutation{Flows: map[int]int{4: 13, 12: 13}},
			Rate:    0.35,
		}
		s := MustNew(cfg, gen)
		return s.Run()
	}
	fast := run(nil)
	slow := run(map[int]int{13: 2}) // node 13 drains every other cycle
	if !fast.Stable {
		t.Fatal("baseline should sustain 0.7 flits/cycle at the endpoint")
	}
	// 2 flows x 0.35 = 0.7 flits/cycle > 0.5 ejection rate: must saturate.
	if !Saturated(slow, fast.AvgLatency(flit.ClassBackground)) {
		t.Errorf("slow endpoint did not congest: %v", slow)
	}
}

// TestSteadyStateStepAllocatesNothing pins router.Router's claim that the
// cycle loop allocates nothing once warm: the scratch a cycle appends to
// (the allocator's touched lists, the heads scratch, a channel's credit
// slices, an endpoint's ejection buffers) has its bound at construction,
// and the generator's offer function is bound once. What still grows by
// doubling — the request and grant lists of a router busier than it has
// been, a source queue, the arena — is done growing after warm-up at a
// load below saturation.
func TestSteadyStateStepAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		alg  string
		w, h int
		rate float64
	}{{"footprint", 8, 8, 0.30}, {"dor", 16, 16, 0.05}} {
		cfg := DefaultConfig()
		cfg.Algorithm, cfg.Width, cfg.Height = c.alg, c.w, c.h
		gen, err := PatternGenerator(cfg, "uniform", traffic.FixedSize(1), c.rate)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(cfg, gen)
		for i := 0; i < 3000; i++ {
			s.Step()
		}
		if n := testing.AllocsPerRun(1000, s.Step); n != 0 {
			t.Errorf("%s %dx%d uniform %.2f: a warm cycle allocates %v times, want 0", c.alg, c.w, c.h, c.rate, n)
		}
	}
}

// TestCounterTruncationWarns: a counter series that outgrows
// obs.DefaultSampleRows keeps its first rows and says so on stderr, as
// the trace ring and the anatomy series do. Sampling all 256 routers of
// a 16x16 mesh every cycle fills the bound in 391 cycles.
func TestCounterTruncationWarns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 200
	cfg.Obs = obs.Options{SamplePeriod: 1}
	gen, err := PatternGenerator(cfg, "uniform", traffic.FixedSize(1), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(cfg, gen)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	res := s.Run()
	os.Stderr = stderr
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	dropped := res.Obs.Sampler.Dropped()
	if dropped == 0 {
		t.Fatalf("%d cycles on %d routers dropped no samples", res.Runtime.Cycles, cfg.Mesh().Nodes())
	}
	want := fmt.Sprintf("sim: warning: counter series truncated — %d of %d router-samples dropped",
		dropped, dropped+obs.DefaultSampleRows)
	if !strings.Contains(string(got), want) {
		t.Errorf("stderr %q lacks %q", got, want)
	}
}
