package exp

import (
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/sim"
)

// tinyProfile is even cheaper than Quick, for unit tests.
func tinyProfile() Profile {
	return Profile{
		Name:        "tiny",
		Base:        table2(200, 400, 1500),
		Rates:       []float64{0.1, 0.3},
		Tol:         0.1,
		TraceCycles: 1200,
	}
}

func TestProfiles(t *testing.T) {
	full, quick := FullProfile(), QuickProfile()
	if full.Base.MeasureCycles <= quick.Base.MeasureCycles {
		t.Error("full profile should measure longer than quick")
	}
	if len(full.Rates) <= len(quick.Rates) {
		t.Error("full profile should have a denser rate grid")
	}
	// A profile sets the effort, never a Table 2 parameter: its Base is
	// the default configuration but for the three phase lengths.
	for _, p := range []Profile{full, quick} {
		if err := p.Base.Validate(); err != nil {
			t.Errorf("%s profile config invalid: %v", p.Name, err)
		}
		cfg := p.Base
		want := sim.DefaultConfig()
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = want.WarmupCycles, want.MeasureCycles, want.DrainCycles
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s profile changes Table 2 beyond the phase lengths:\nhave %+v\nwant %+v", p.Name, cfg, want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"quick", "full"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = profile %q, %v", name, p.Name, err)
		}
	}
	_, err := ProfileByName("quik")
	if err == nil {
		t.Fatal("unknown profile name accepted")
	}
	for _, want := range []string{`"quik"`, "quick", "full"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestRateGrid(t *testing.T) {
	g := rateGrid(0.1, 0.3, 0.1)
	if len(g) != 3 || g[0] != 0.1 || g[2] < 0.299 || g[2] > 0.301 {
		t.Errorf("rateGrid = %v", g)
	}
}

func TestSyntheticLists(t *testing.T) {
	if len(SyntheticAlgorithms()) != 7 {
		t.Errorf("algorithms = %v", SyntheticAlgorithms())
	}
	if len(SyntheticPatterns()) != 3 {
		t.Errorf("patterns = %v", SyntheticPatterns())
	}
}

func TestFigure5Tiny(t *testing.T) {
	p := tinyProfile()
	cs, err := curveSet(p, "Figure 5", "uniform", nil, []string{"footprint", "dor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Curves) != 2 {
		t.Fatalf("curves = %d", len(cs.Curves))
	}
	for _, c := range cs.Curves {
		if len(c.Points) != len(p.Rates) {
			t.Errorf("%s: %d points, want %d", c.Algorithm, len(c.Points), len(p.Rates))
		}
		if sat := SaturationFromCurve(c); sat <= 0 {
			t.Errorf("%s: saturation %v", c.Algorithm, sat)
		}
	}
	out := cs.Format()
	for _, want := range []string{"uniform", "footprint", "dor", "satTP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestSaturationFromCurveEmpty(t *testing.T) {
	if SaturationFromCurve(Curve{}) != 0 {
		t.Error("empty curve should have zero saturation")
	}
}

func TestFigure7Tiny(t *testing.T) {
	vs, err := Figure7(tinyProfile(), "uniform", []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Searches) != 2 {
		t.Fatalf("searches = %d", len(vs.Searches))
	}
	for i, s := range vs.Searches {
		if s.FP.Throughput <= 0 || s.DB.Throughput <= 0 {
			t.Errorf("VCs=%d: zero throughput %v / %v", vs.VCs[i], s.FP.Throughput, s.DB.Throughput)
		}
	}
	if !strings.Contains(vs.Format(), "Figure 7") {
		t.Error("bad format")
	}
}

func TestFigure8Tiny(t *testing.T) {
	st, err := Figure8(tinyProfile(), [][2]int{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Searches) != 3 { // one mesh x three patterns
		t.Fatalf("searches = %d", len(st.Searches))
	}
	for i, s := range st.Searches {
		if s.FP.Throughput <= 0 || s.DB.Throughput <= 0 {
			t.Errorf("%s: zero throughput %v / %v", st.Cells[i].Pattern, s.FP.Throughput, s.DB.Throughput)
		}
	}
	if !strings.Contains(st.Format(), "dbar/fp") {
		t.Error("bad format")
	}
}

func TestFigure9Tiny(t *testing.T) {
	hs, err := Figure9(tinyProfile(), 0.3, []float64{0.1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Points) != 2 {
		t.Fatalf("points = %d", len(hs.Points))
	}
	if !strings.Contains(hs.Format(), "hotRate") {
		t.Error("bad format")
	}
}

func TestFigure10Tiny(t *testing.T) {
	ts, err := Figure10(tinyProfile(), [][2]string{{"x264", "canneal"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.PairRuns) != 1 {
		t.Fatalf("pairs = %d", len(ts.PairRuns))
	}
	if fp, db := ts.PairRuns[0].FP.AvgLatency(flit.ClassBackground), ts.PairRuns[0].DB.AvgLatency(flit.ClassBackground); fp <= 0 || db <= 0 {
		t.Errorf("latencies = %v / %v", fp, db)
	}
	if len(ts.SoloRuns) != 2 {
		t.Errorf("per-workload = %d", len(ts.SoloRuns))
	}
	out := ts.Format()
	for _, want := range []string{"Figure 10(a)", "Figure 10(b)", "Figure 10(c)", "x264"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestFigure10UnknownWorkload(t *testing.T) {
	if _, err := Figure10(tinyProfile(), [][2]string{{"doom", "x264"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFigure2Tiny(t *testing.T) {
	st, err := Figure2(tinyProfile(), []string{"dor", "footprint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Algorithms) != 2 {
		t.Fatalf("algorithms = %d", len(st.Algorithms))
	}
	for _, ta := range st.Algorithms {
		if ta.Endpoint.VCs <= 0 {
			t.Errorf("%s: no congestion tree measured", ta.Algorithm)
		}
	}
	if !strings.Contains(st.Format(), "n13") {
		t.Error("bad format")
	}
}

func TestTable1(t *testing.T) {
	st := Table1()
	if len(st.Qualitative) == 0 || len(st.Measured) != 10 {
		t.Fatalf("table sizes: %d, %d", len(st.Qualitative), len(st.Measured))
	}
	var fp, dor AdaptivenessRow
	for _, r := range st.Measured {
		switch r.Algorithm {
		case "footprint":
			fp = r
		case "dor":
			dor = r
		}
	}
	if fp.MeanPAdapt != 1.0 {
		t.Errorf("footprint mean P_adapt = %v", fp.MeanPAdapt)
	}
	if dor.MeanPAdapt >= fp.MeanPAdapt {
		t.Error("dor should have lower port adaptiveness")
	}
	if fp.VCAdapt != 0.9 {
		t.Errorf("footprint VC_adapt = %v", fp.VCAdapt)
	}
	if !strings.Contains(st.Format(), "Table 1") {
		t.Error("bad format")
	}
}

func TestTable2(t *testing.T) {
	out := Table2(FullProfile().Base)
	for _, want := range []string{"8x8", "footprint", "10 VCs", "wormhole", "2.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestSectionCost(t *testing.T) {
	cs := SectionCost()
	if len(cs.Rows) != 4 {
		t.Fatalf("rows = %d", len(cs.Rows))
	}
	if !strings.Contains(cs.Format(), "Section 4.4") {
		t.Error("bad format")
	}
}

func TestDefaultPairsNamedCombos(t *testing.T) {
	pairs := DefaultPairs()
	hasX264Canneal := false
	fluidCount := 0
	for _, p := range pairs {
		if (p[0] == "x264" && p[1] == "canneal") || (p[0] == "canneal" && p[1] == "x264") {
			hasX264Canneal = true
		}
		if p[0] == "fluidanimate" || p[1] == "fluidanimate" {
			fluidCount++
		}
	}
	if !hasX264Canneal {
		t.Error("the paper's x264+canneal pair is missing")
	}
	if fluidCount < 2 {
		t.Error("fluidanimate combinations missing")
	}
}
