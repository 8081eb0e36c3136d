package nocsim

import (
	"math"
	"strings"
	"testing"
)

// quickCfg returns a fast config for facade tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VCs = 4
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 600, 3000
	return cfg
}

func TestRunQuickstart(t *testing.T) {
	res, err := Run(quickCfg(), "uniform", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Error("low load unstable")
	}
	if lat := res.AvgLatency(ClassBackground); lat <= 0 {
		t.Errorf("latency = %v", lat)
	}
}

func TestRunSizedValidates(t *testing.T) {
	if _, err := Run(quickCfg(), "no-such-pattern", 0.2); err == nil {
		t.Error("unknown pattern accepted")
	}
	cfg := quickCfg()
	cfg.Algorithm = "bogus"
	if _, err := Run(cfg, "uniform", 0.2); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestUserInputIsAnErrorNotAPanic holds the inputs a command line can
// supply that used to panic deep in the traffic constructors (or run
// silently wrong): each is reported by Run, RunSized and the sweep entry
// points as an error naming what was wrong, and the two lookalikes that
// are legal still run.
func TestUserInputIsAnErrorNotAPanic(t *testing.T) {
	cases := []struct {
		name          string
		width, height int
		pattern       string
		rate          float64
		lo, hi        int
		want          string // substring of the error; "" = must run
	}{
		{"shuffle on 9 nodes", 3, 3, "shuffle", 0.2, 1, 1, "power-of-two"},
		{"transpose on 3x5", 3, 5, "transpose", 0.2, 1, 1, "square mesh"},
		{"min-flits 3 max-flits 2", 4, 4, "uniform", 0.2, 3, 2, "size range"},
		{"min-flits 0 max-flits 0", 4, 4, "uniform", 0.2, 0, 0, "size must be >= 1"},
		{"300x300 mesh", 300, 300, "uniform", 0.2, 1, 1, "exceeds 65535 nodes"},
		{"rate -1", 4, 4, "uniform", -1, 1, 1, "offered load"},
		{"rate 5", 4, 4, "uniform", 5, 1, 1, "offered load"},
		{"rate NaN", 4, 4, "uniform", math.NaN(), 1, 1, "offered load"},
		{"bitcomp on 9 nodes", 3, 3, "bitcomp", 0.2, 1, 1, ""},
		{"1x4 mesh", 1, 4, "uniform", 0.2, 1, 1, ""},
		{"1x1 mesh", 1, 1, "uniform", 0.2, 1, 1, "no second node"},
		{"transpose on 1x1", 1, 1, "transpose", 0.2, 1, 1, "no second node"},
		{"shuffle on 1x1", 1, 1, "shuffle", 0.2, 1, 1, "no second node"},
		{"tornado", 4, 4, "tornado", 0.2, 1, 1, "uniform|transpose|shuffle|bitcomp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Width, cfg.Height = c.width, c.height
			check := func(via string, err error) {
				t.Helper()
				switch {
				case c.want == "" && err != nil:
					t.Errorf("%s: %v", via, err)
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Errorf("%s: error %v, want one containing %q", via, err, c.want)
				}
			}
			_, err := RunSized(cfg, c.pattern, c.rate, c.lo, c.hi)
			check("RunSized", err)
			if c.lo == 1 && c.hi == 1 {
				_, err = Run(cfg, c.pattern, c.rate)
				check("Run", err)
				_, err = LatencyThroughput(cfg, c.pattern, []float64{c.rate})
				check("LatencyThroughput", err)
			}
		})
	}
	// The saturation search picks its own rates; the mesh and pattern
	// checks are the ones that can reach it.
	cfg := quickCfg()
	cfg.Width, cfg.Height = 3, 5
	if _, err := SaturationThroughput(cfg, "transpose", 0.1); err == nil {
		t.Error("SaturationThroughput: transpose on a 3x5 mesh accepted")
	}
	cfg.Width, cfg.Height = 1, 1
	if sr, err := SaturationThroughput(cfg, "uniform", 0.1); err == nil {
		t.Errorf("SaturationThroughput: a 1x1 mesh has saturation throughput %v", sr.Throughput)
	}
}

func TestAlgorithmsAndPatterns(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 10 {
		t.Errorf("Algorithms() = %v, want 10 entries", algs)
	}
	found := false
	for _, a := range algs {
		if a == "footprint" {
			found = true
		}
	}
	if !found {
		t.Error("footprint missing")
	}
	if got, want := strings.Join(Patterns(), ","), "uniform,transpose,shuffle,bitcomp"; got != want {
		t.Errorf("Patterns() = %s, want %s", got, want)
	}
}

func TestLatencyThroughputFacade(t *testing.T) {
	pts, err := LatencyThroughput(quickCfg(), "uniform", []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestTraceFacade(t *testing.T) {
	cfg := quickCfg()
	cfg.Width, cfg.Height = 8, 8
	recs, err := GeneratePARSEC(cfg, "dedup", 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	recs2, err := GeneratePARSEC(cfg, "x264", 1500, 8)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeTraces(recs, recs2)
	if len(merged) != len(recs)+len(recs2) {
		t.Fatal("merge lost records")
	}
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1500
	cfg.DrainCycles = 20000
	s, err := New(cfg, NewTracePlayer(merged))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Stable {
		t.Error("light trace pair did not drain")
	}
	if res.MeasuredEjected == 0 {
		t.Error("nothing delivered")
	}
}

// TestTraceOffMeshIsAnError: a trace made for an 8×8 mesh names nodes a
// 4×4 mesh does not have, and New says so rather than panicking in the
// player's Init.
func TestTraceOffMeshIsAnError(t *testing.T) {
	cfg := quickCfg()
	cfg.Width, cfg.Height = 8, 8
	recs, err := GeneratePARSEC(cfg, "x264", 1500, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(quickCfg(), NewTracePlayer(recs))
	if err == nil || !strings.Contains(err.Error(), "invalid trace for 4x4 mesh") {
		t.Fatalf("New(4x4, 8x8 trace) error = %v, want the invalid-trace error", err)
	}
}

func TestGeneratePARSECUnknown(t *testing.T) {
	if _, err := GeneratePARSEC(quickCfg(), "crysis", 100, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(ParsecWorkloads()) != 8 {
		t.Errorf("ParsecWorkloads() = %v", ParsecWorkloads())
	}
}

func TestAdaptivenessFacade(t *testing.T) {
	cfg := DefaultConfig()
	pa, err := PortAdaptiveness(cfg, "footprint", 0, 27)
	if err != nil || pa != 1.0 {
		t.Errorf("footprint P_adapt = %v, %v", pa, err)
	}
	va, err := VCAdaptiveness("footprint", 10)
	if err != nil || va != 0.9 {
		t.Errorf("footprint VC_adapt = %v, %v", va, err)
	}
	if _, err := PortAdaptiveness(cfg, "bogus", 0, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := VCAdaptiveness("bogus", 10); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFootprintCostBits(t *testing.T) {
	if bits := FootprintCostBits(64, 16); bits != 101 {
		t.Errorf("cost = %d bits, want 101", bits)
	}
}

func TestHotspotFacadeRejectsSmallMesh(t *testing.T) {
	if _, err := HotspotCurve(quickCfg(), 0.3, []float64{0.1}); err == nil {
		t.Error("4x4 mesh accepted for Table 3 flows")
	}
}

func TestMeshAccessor(t *testing.T) {
	m := Mesh(DefaultConfig())
	if m.Nodes() != 64 {
		t.Errorf("nodes = %d", m.Nodes())
	}
}

func TestSaturationFacade(t *testing.T) {
	cfg := quickCfg()
	sr, err := SaturationThroughput(cfg, "uniform", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Throughput <= 0 || sr.Throughput > 1 {
		t.Errorf("saturation = %v", sr.Throughput)
	}
}
