package sim

import (
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/traffic"
)

// hotspotTestConfig is a reduced-cycle 8×8 configuration (Table 3 flows
// are defined on 8×8).
func hotspotTestConfig(alg string) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.VCs = 4
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 1200
	cfg.DrainCycles = 4000
	return cfg
}

func TestHotspotCurveRequires8x8(t *testing.T) {
	cfg := testConfig() // 4x4
	if _, err := HotspotCurve(cfg, 0.3, []float64{0.1}, 0); err == nil {
		t.Error("want error on non-8x8 mesh")
	}
}

func TestHotspotCurveShape(t *testing.T) {
	cfg := hotspotTestConfig("footprint")
	pts, err := HotspotCurve(cfg, 0.3, []float64{0.1, 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Result.AvgLatency(flit.ClassBackground) <= 0 {
			t.Errorf("rate %v: no background latency measured", p.Rate)
		}
		// Hotspot packets must be excluded from background latency but
		// present in the per-class map at nonzero hotspot rate.
		if p.Result.AvgLatency(flit.ClassHotspot) <= 0 {
			t.Errorf("rate %v: hotspot class not measured", p.Rate)
		}
	}
	lo, hi := pts[0].Result.AvgLatency(flit.ClassBackground), pts[1].Result.AvgLatency(flit.ClassBackground)
	if hi < lo {
		t.Errorf("background latency should not improve as hotspot load grows: %v -> %v", lo, hi)
	}
}

// TestFootprintBeatsDBARUnderHotspot is the headline result (Figure 9):
// with the Table 3 hotspot flows plus 30% background, DBAR's background
// latency degrades far more than Footprint's at the same hotspot rate.
func TestFootprintBeatsDBARUnderHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	curve := func(alg string) *Result {
		cfg := hotspotTestConfig(alg)
		cfg.VCs = 10 // the Figure 9 gap needs the paper's VC count
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1500, 2000, 6000
		pts, err := HotspotCurve(cfg, 0.3, []float64{0.45}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].Result
	}
	fp, db := curve("footprint"), curve("dbar")
	fpLat, dbLat := fp.AvgLatency(flit.ClassBackground), db.AvgLatency(flit.ClassBackground)
	t.Logf("hotspot rate 0.45: footprint bg lat %.1f (stable=%v), dbar bg lat %.1f (stable=%v)",
		fpLat, fp.Stable, dbLat, db.Stable)
	// The paper's Figure 9: DBAR's background traffic saturates near rate
	// 0.39 while Footprint survives well past it. At 0.45 Footprint must
	// be clearly ahead of DBAR on background latency.
	if db.Stable && !fp.Stable {
		t.Fatal("inverted: Footprint saturated while DBAR stable at 0.45")
	}
	if fpLat >= dbLat {
		t.Errorf("no Footprint advantage under endpoint congestion: fp=%.1f dbar=%.1f", fpLat, dbLat)
	}
}

func TestCongestionTreeAnalysis(t *testing.T) {
	// Drive the Section 2 permutation on a 4x4 mesh with DOR and verify
	// the analyzer sees a congestion tree at the oversubscribed endpoint
	// n13 with thick branches.
	cfg := testConfig()
	cfg.Algorithm = "dor"
	flows := traffic.Permutation{Flows: map[int]int{4: 13, 12: 13}}
	gen := &traffic.Generator{Nodes: []int{4, 12}, Pattern: flows, Rate: 1.0}
	s := MustNew(cfg, gen)
	for i := 0; i < 400; i++ {
		s.step()
	}
	ct := AnalyzeCongestionTree(s.Network(), 13)
	if ct.Links == 0 || ct.VCs == 0 {
		t.Fatalf("no congestion tree found: %+v", ct)
	}
	if ct.MaxThickness < 2 {
		t.Errorf("DOR should create thick branches, max thickness = %d", ct.MaxThickness)
	}
	// No tree for an idle destination.
	idle := AnalyzeCongestionTree(s.Network(), 0)
	if idle.VCs != 0 {
		t.Errorf("phantom congestion tree at idle node: %+v", idle)
	}
}

func TestTreeSampler(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithm = "dor"
	flows := traffic.Permutation{Flows: map[int]int{4: 13, 12: 13}}
	gen := &traffic.Generator{Nodes: []int{4, 12}, Pattern: flows, Rate: 1.0}
	s := MustNew(cfg, gen)
	ts := NewTreeSampler(13)
	for i := 0; i < 300; i++ {
		s.step()
		if i >= 200 {
			ts.Sample(s.Network())
		}
	}
	avg := ts.Average()
	if avg.Samples != 100 {
		t.Errorf("samples = %d", avg.Samples)
	}
	if avg.VCs <= 0 || avg.Links <= 0 {
		t.Errorf("empty average tree: %+v", avg)
	}
	empty := NewTreeSampler(5).Average()
	if empty.Samples != 0 || empty.VCs != 0 {
		t.Error("empty sampler should average to zero")
	}
}

// TestFootprintTreeSlimmerThanDBAR checks the core mechanism: with
// endpoint congestion competing against background traffic, Footprint's
// congestion tree occupies fewer VCs than DBAR's (Figure 2's ideal vs
// Figure 2(b)). Pure hotspot traffic alone would fill every path VC with
// hotspot packets under any algorithm; the slimness shows precisely when
// other traffic shares the routers.
func TestFootprintTreeSlimmerThanDBAR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	run := func(alg string) AverageTree {
		cfg := hotspotTestConfig(alg)
		flows := traffic.HotspotFlows()
		hot := &traffic.Generator{
			Nodes: []int{0, 7, 24, 31, 32, 39, 56, 63}, Pattern: flows,
			Rate: 0.8, Class: flit.ClassHotspot,
		}
		bg := &traffic.Generator{
			Nodes:   traffic.BackgroundNodes(cfg.Mesh()),
			Pattern: traffic.Uniform{Nodes: 64},
			Rate:    0.3,
		}
		s := MustNew(cfg, hot, bg)
		ts := NewTreeSampler(63)
		for i := 0; i < 3000; i++ {
			s.step()
			if i >= 1500 {
				ts.Sample(s.Network())
			}
		}
		return ts.Average()
	}
	fp, db := run("footprint"), run("dbar")
	t.Logf("avg tree: footprint links=%.1f vcs=%.1f maxthick=%.1f; dbar links=%.1f vcs=%.1f maxthick=%.1f",
		fp.Links, fp.VCs, fp.MaxThickness, db.Links, db.VCs, db.MaxThickness)
	// "Slim" in the paper means thin branches: fewer VCs per
	// participating link. (Footprint may touch more links than DBAR —
	// full port adaptiveness is retained — but each branch stays thin.)
	fpThick := fp.VCs / fp.Links
	dbThick := db.VCs / db.Links
	if fpThick >= dbThick {
		t.Errorf("footprint branches (%.2f VCs/link) not thinner than DBAR (%.2f VCs/link)",
			fpThick, dbThick)
	}
}
