package main

import (
	"fmt"

	"nocsim"
	"nocsim/internal/obs"
	"nocsim/internal/sim"
)

// obsFixtures runs uniform_mid ops with the packet tracer, the counter
// sampler, the link heatmap and the latency anatomy all on, alternating
// with the same ops with them off, and reports the extra wall time as a
// share of the plain run. The tracer's default ring is smaller than such
// a run, so the simulator notes the overflow on standard error.
func obsFixtures(m metricSet, fx fixtureBudget) error {
	share := make([]float64, fx.samples)
	for i := range share {
		cfg := table2("footprint", sim.DeriveSeed(fx.seed, fmt.Sprintf("fixture/obs/%d", i)), 400, 800, 3000)
		var wall [2]float64
		for on := range wall {
			if on == 1 {
				cfg.Obs = obs.Options{Trace: true, SamplePeriod: 100, Heatmap: true, Anatomy: true}
			}
			res, err := nocsim.Run(cfg, "uniform", 0.30)
			if err != nil {
				return err
			}
			wall[on] = res.Runtime.WallSeconds
		}
		share[i] = wall[1]/wall[0] - 1
	}
	m["obs.enabled_overhead_share"] = median(share)
	return nil
}
