package sim

import (
	"fmt"
	"sort"

	"nocsim/internal/flit"
	"nocsim/internal/traffic"
)

// HotspotCurve reproduces Figure 9 for one algorithm: one point per
// hotspot injection rate, whose ClassBackground latency is the figure's
// y value. cfg must describe an 8×8 mesh, since Table 3's flows are
// defined on it. bgRate is the constant background load (the paper
// uses 0.30). The rates run on up to jobs workers (0 = one per CPU); every rate is an independent simulation
// with its own Config copy and derived seed, so the curve is identical
// at any jobs value.
func HotspotCurve(cfg Config, bgRate float64, hotspotRates []float64, jobs int) ([]SweepPoint, error) {
	return Map(jobs, len(hotspotRates), func(i int) (SweepPoint, error) {
		return HotspotRun(cfg, bgRate, hotspotRates[i])
	})
}

// HotspotRun simulates one hotspot rate point: Table 3's flows at rate
// over uniform background traffic at bgRate. Experiment harnesses that
// flatten whole (algorithm × rate) grids call it directly.
func HotspotRun(cfg Config, bgRate, rate float64) (SweepPoint, error) {
	if cfg.Width != 8 || cfg.Height != 8 {
		return SweepPoint{}, fmt.Errorf("sim: Table 3 hotspot flows require an 8x8 mesh, have %dx%d", cfg.Width, cfg.Height)
	}
	for _, r := range []float64{bgRate, rate} {
		if err := traffic.CheckRate(r); err != nil {
			return SweepPoint{}, err
		}
	}
	// The seed key names the traffic cell only — like loadIdentity, it
	// excludes the algorithm so Figure 9's curves face identical traffic.
	id := Identify(cfg,
		fmt.Sprintf("%s hot=%.2f", cfg.Label(), rate),
		fmt.Sprintf("hotspot/bg=%.6f/hot=%.6f", bgRate, rate))
	cfg = id.Apply(cfg)
	cfg.PprofLabels = []string{"traffic", "hotspot", "rate", fmt.Sprintf("%.3f", rate)}

	flows := traffic.HotspotFlows()
	sources := make([]int, 0, len(flows.Flows))
	for s := range flows.Flows {
		sources = append(sources, s)
	}
	// Deterministic source order for reproducibility.
	sort.Ints(sources)

	hot := &traffic.Generator{
		Nodes:   sources,
		Pattern: flows,
		Rate:    rate,
		Class:   flit.ClassHotspot,
	}
	bg := &traffic.Generator{
		Nodes:   traffic.BackgroundNodes(cfg.Mesh()),
		Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
		Rate:    bgRate,
		Class:   flit.ClassBackground,
	}
	s, err := New(cfg, hot, bg)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Rate: rate, Result: s.Run()}, nil
}
