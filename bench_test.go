package nocsim

// The benchmark harness: one benchmark per table and figure of the paper,
// each regenerating its experiment at the quick effort profile and
// reporting the headline quantity via b.ReportMetric, plus ablation
// benchmarks for the design decisions called out in DESIGN.md. Run the
// cmd/ tools with -profile full for publication-scale numbers; these
// benches keep every experiment exercised by `go test -bench`.

import (
	"strconv"
	"testing"

	"nocsim/internal/exp"
	"nocsim/internal/flit"
	"nocsim/internal/obs"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// benchProfile is the effort level used by all benches.
func benchProfile() exp.Profile { return exp.QuickProfile() }

// BenchmarkTable1Adaptiveness regenerates Table 1's quantitative half:
// the mean port adaptiveness of every algorithm over the 8×8 mesh.
func BenchmarkTable1Adaptiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := exp.Table1()
		for _, r := range st.Measured {
			if r.Algorithm == "footprint" {
				b.ReportMetric(r.MeanPAdapt, "footprint-P_adapt")
			}
		}
	}
}

// BenchmarkTable2Config exercises the Table 2 baseline end to end: one
// default-configuration simulation at a moderate uniform load.
func BenchmarkTable2Config(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		cfg := p.BaseConfig()
		res, err := Run(cfg, "uniform", 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgLatency(ClassBackground), "latency-cycles")
	}
}

// BenchmarkTable3HotspotFlows drives the Table 3 flows alone and reports
// the aggregate accepted throughput of the four hotspot endpoints.
func BenchmarkTable3HotspotFlows(b *testing.B) {
	p := benchProfile()
	flows := traffic.HotspotFlows()
	for i := 0; i < b.N; i++ {
		cfg := p.BaseConfig()
		gen := &traffic.Generator{
			Nodes:   []int{0, 7, 24, 31, 32, 39, 56, 63},
			Pattern: flows,
			Rate:    0.8,
			Class:   flit.ClassHotspot,
		}
		s, err := sim.New(cfg, gen)
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		b.ReportMetric(res.Accepted*64, "hotspot-flits-per-cycle")
	}
}

// BenchmarkFigure2CongestionTree regenerates the Section 2 congestion
// tree anatomy and reports Footprint's tree size versus DBAR's.
func BenchmarkFigure2CongestionTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := exp.Figure2(benchProfile(), []string{"dbar", "footprint"})
		if err != nil {
			b.Fatal(err)
		}
		for _, ta := range st.Algorithms {
			b.ReportMetric(ta.Endpoint.VCs, ta.Algorithm+"-tree-VCs")
		}
	}
}

// benchFigure5 runs one Figure 5 panel and reports per-algorithm
// saturation throughput.
func benchFigure5(b *testing.B, pattern string) {
	for i := 0; i < b.N; i++ {
		cs, err := exp.Figure5(benchProfile(), pattern)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cs.Curves {
			if c.Algorithm == "footprint" || c.Algorithm == "dbar" {
				b.ReportMetric(exp.SaturationFromCurve(c), c.Algorithm+"-satTP")
			}
		}
	}
}

// BenchmarkFigure5Uniform regenerates Figure 5(a).
func BenchmarkFigure5Uniform(b *testing.B) { benchFigure5(b, "uniform") }

// BenchmarkFigure5Transpose regenerates Figure 5(b).
func BenchmarkFigure5Transpose(b *testing.B) { benchFigure5(b, "transpose") }

// BenchmarkFigure5Shuffle regenerates Figure 5(c).
func BenchmarkFigure5Shuffle(b *testing.B) { benchFigure5(b, "shuffle") }

// benchFigure6 runs one Figure 6 panel (variable packet sizes).
func benchFigure6(b *testing.B, pattern string) {
	for i := 0; i < b.N; i++ {
		cs, err := exp.Figure6(benchProfile(), pattern)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cs.Curves {
			if c.Algorithm == "footprint" {
				b.ReportMetric(exp.SaturationFromCurve(c), "footprint-satTP")
			}
		}
	}
}

// BenchmarkFigure6Uniform regenerates Figure 6(a).
func BenchmarkFigure6Uniform(b *testing.B) { benchFigure6(b, "uniform") }

// BenchmarkFigure6Transpose regenerates Figure 6(b).
func BenchmarkFigure6Transpose(b *testing.B) { benchFigure6(b, "transpose") }

// BenchmarkFigure6Shuffle regenerates Figure 6(c).
func BenchmarkFigure6Shuffle(b *testing.B) { benchFigure6(b, "shuffle") }

// BenchmarkFigure7VCSweep regenerates Figure 7 (uniform panel, 2–8 VCs at
// bench scale) and reports Footprint's gain over DBAR.
func BenchmarkFigure7VCSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vs, err := exp.Figure7(benchProfile(), "uniform", []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
		for i, s := range vs.Searches {
			if db := s.DB.Throughput; db > 0 {
				gain := (s.FP.Throughput - db) / db * 100
				b.ReportMetric(gain, "gain-pct-"+strconv.Itoa(vs.VCs[i])+"vc")
			}
		}
	}
}

// BenchmarkFigure8Scaling regenerates Figure 8 on the 4×4 mesh (the
// 16×16 run is left to nocsim scale) and reports DBAR's normalized
// throughput.
func BenchmarkFigure8Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := exp.Figure8(benchProfile(), [][2]int{{4, 4}})
		if err != nil {
			b.Fatal(err)
		}
		for i, s := range st.Searches {
			b.ReportMetric(s.DB.Throughput/s.FP.Throughput, "dbar-over-fp-"+st.Cells[i].Pattern)
		}
	}
}

// BenchmarkFigure9Hotspot regenerates Figure 9 at two hotspot rates and
// reports the background latencies of both algorithms at the higher rate.
func BenchmarkFigure9Hotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hs, err := exp.Figure9(benchProfile(), 0.3, []float64{0.2, 0.45})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(hs.Points[1].FP.BackgroundLatency, "footprint-bg-latency")
		b.ReportMetric(hs.Points[1].DB.BackgroundLatency, "dbar-bg-latency")
	}
}

// BenchmarkFigure10Traces regenerates a reduced Figure 10: the
// x264+canneal pair (the paper's closest race) plus its per-workload
// blocking metrics.
func BenchmarkFigure10Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := exp.Figure10(benchProfile(), [][2]string{{"x264", "canneal"}})
		if err != nil {
			b.Fatal(err)
		}
		fp := ts.PairRuns[0].FP.AvgLatency(ClassBackground)
		db := ts.PairRuns[0].DB.AvgLatency(ClassBackground)
		b.ReportMetric((db-fp)/db*100, "fp-gain-pct")
	}
}

// BenchmarkSectionCost regenerates the Section 4.4 storage table.
func BenchmarkSectionCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := exp.SectionCost()
		b.ReportMetric(float64(cs.Rows[2].TotalBitsPerPort), "bits-8x8-16vc")
	}
}

// BenchmarkObsOverhead measures the telemetry layer's cost on the
// Table 2 baseline scenario: the default disabled path (what every
// experiment pays) versus a run with every collector enabled — lifecycle
// tracer, 100-cycle counter sampler and link heatmap. CI tracks the
// cycles/s of both; see TestObsOverheadBudget for the enforced bound.
func BenchmarkObsOverhead(b *testing.B) {
	p := benchProfile()
	run := func(b *testing.B, o obs.Options) {
		for i := 0; i < b.N; i++ {
			cfg := p.BaseConfig()
			cfg.Obs = o
			res, err := Run(cfg, "uniform", 0.3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Runtime.CyclesPerSec, "cycles/s")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, obs.Options{}) })
	b.Run("enabled", func(b *testing.B) {
		run(b, obs.Options{Trace: true, SamplePeriod: 100, Heatmap: true})
	})
}

// BenchmarkSimNew measures building a simulation, the one cost every
// sweep cell, bisection probe and test pays once per fabric before its
// first cycle: the Table 2 router with a uniform injector on the 8×8 mesh
// under Footprint, and on Figure 8's 16×16 mesh under DOR.
func BenchmarkSimNew(b *testing.B) {
	for _, c := range []struct {
		name, alg string
		side      int
	}{{"footprint-8x8", "footprint", 8}, {"dor-16x16", "dor", 16}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Width, cfg.Height, cfg.Algorithm = c.side, c.side, c.alg
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inj, err := NewPatternInjector(cfg, "uniform", 0.3, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := New(cfg, inj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations (DESIGN.md) -------------------------------------------------

// BenchmarkAblationThreshold sweeps Footprint's congestion threshold
// (paper default: half the VCs) under the hotspot scenario.
func BenchmarkAblationThreshold(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		for _, thr := range []int{2, 5, 8} {
			cfg := p.BaseConfig()
			lat, err := runFootprintVariant(cfg, &routing.Footprint{Threshold: thr})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(lat, "bg-latency-thr"+strconv.Itoa(thr))
		}
	}
}

// BenchmarkAblationPriorities disables Footprint's priority ladder to
// isolate its contribution versus plain footprint-set restriction. In
// this microarchitecture the ladder's effect is small — occupied VCs are
// rarely re-allocatable, so the allocatable set is mostly idle VCs that
// every packet ranks equally (see DESIGN.md).
func BenchmarkAblationPriorities(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		cfg := p.BaseConfig()
		with, err := runFootprintVariant(cfg, &routing.Footprint{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := runFootprintVariant(cfg, &routing.Footprint{DisablePriorities: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with, "bg-latency-with-priorities")
		b.ReportMetric(without, "bg-latency-without-priorities")
	}
}

// BenchmarkAblationRegulation removes Footprint's core mechanism — waiting
// on footprint VCs at saturated ports — under the Figure 9 hotspot
// scenario. This is the ablation that matters: without regulation the
// background latency collapses toward DBAR's.
func BenchmarkAblationRegulation(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		cfg := p.BaseConfig()
		with, err := runFootprintVariant(cfg, &routing.Footprint{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := runFootprintVariant(cfg, &routing.Footprint{DisableRegulation: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with, "bg-latency-regulated")
		b.ReportMetric(without, "bg-latency-unregulated")
	}
}

// BenchmarkAblationRealloc compares conservative (Duato) VC reallocation
// against eager reallocation on uniform traffic, the effect Section 4.2.1
// uses to explain Odd-Even's edge over DBAR.
func BenchmarkAblationRealloc(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		for _, alg := range []string{"dbar", "oddeven"} {
			cfg := p.BaseConfig()
			cfg.Algorithm = alg
			res, err := Run(cfg, "uniform", 0.45)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Accepted, alg+"-accepted")
		}
	}
}

// runFootprintVariant runs the Figure 9 hotspot scenario (hotspot flows
// at 0.45 over 30% background) with a custom Footprint instance
// (bypassing routing's table) and returns the background latency.
func runFootprintVariant(cfg sim.Config, fp *routing.Footprint) (float64, error) {
	cfg.AlgFactory = func() routing.Algorithm {
		return &routing.Footprint{
			Threshold:         fp.Threshold,
			DisablePriorities: fp.DisablePriorities,
			DisableRegulation: fp.DisableRegulation,
		}
	}
	pt, err := sim.HotspotRun(cfg, 0.3, 0.45)
	return pt.BackgroundLatency, err
}
