// Package exp defines one reproducible experiment per table and figure of
// the paper. The cmd tools print their results; the benchmark harness in
// the repository root runs them at reduced scale. Each experiment returns
// a structured result with a Format method that prints the same rows or
// series the paper reports and, when it simulates through sim.Run, a Runs
// method that hands back every simulation it made — bisection probes
// included, in grid order — so that whatever a flag asks of a run is done
// in one place (cmd/nocsim's finish) after the experiment has returned.
package exp

import (
	"fmt"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
)

// Profile sets the simulation effort of an experiment. Full approximates
// the paper's methodology; Quick is for benchmarks, smoke tests and
// iteration.
type Profile struct {
	Name    string
	Warmup  int64
	Measure int64
	Drain   int64
	// Rates is the injection-rate grid of latency-throughput curves, in
	// flits/node/cycle.
	Rates []float64
	// Tol is the bisection tolerance of saturation-throughput searches.
	Tol float64
	// TraceCycles bounds generated trace length for Figure 10.
	TraceCycles int64

	// Jobs is the worker count for the experiment's grid of independent
	// runs (0 = one per CPU; see sim.Map). Per-run seeds are derived
	// deterministically, so results are identical at any value.
	Jobs int

	// Obs selects per-run observability collectors (counter sampler,
	// heatmap, tracer) attached to every simulation of the experiment;
	// each Result carries its collector back for per-run export.
	Obs obs.Options
	// WatchdogCycles arms the per-run stall watchdog (see
	// sim.Config.WatchdogCycles); WatchdogOut overrides the stall
	// snapshot path.
	WatchdogCycles int64
	WatchdogOut    string
}

// FullProfile is the publication-quality effort level.
func FullProfile() Profile {
	return Profile{
		Name:    "full",
		Warmup:  2500,
		Measure: 4000,
		Drain:   15000,
		Rates:   rateGrid(0.05, 0.95, 0.05),
		Tol:     0.01,

		TraceCycles: 20000,
	}
}

// QuickProfile trades precision for speed (used by go test -bench and CI).
func QuickProfile() Profile {
	return Profile{
		Name:    "quick",
		Warmup:  400,
		Measure: 800,
		Drain:   3000,
		Rates:   rateGrid(0.1, 0.7, 0.15),
		Tol:     0.05,

		TraceCycles: 3000,
	}
}

// ProfileByName returns the effort profile called name: "full" or
// "quick".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "full":
		return FullProfile(), nil
	case "quick":
		return QuickProfile(), nil
	}
	return Profile{}, fmt.Errorf("unknown profile %q (want full or quick)", name)
}

func rateGrid(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi+1e-9; r += step {
		out = append(out, r)
	}
	return out
}

// apply copies the profile's phase lengths and observability wiring onto
// a simulation config.
func (p Profile) apply(cfg sim.Config) sim.Config {
	cfg.WarmupCycles = p.Warmup
	cfg.MeasureCycles = p.Measure
	cfg.DrainCycles = p.Drain
	cfg.Obs = p.Obs
	cfg.WatchdogCycles = p.WatchdogCycles
	cfg.WatchdogOut = p.WatchdogOut
	return cfg
}

// BaseConfig returns the Table 2 default configuration at this profile's
// effort.
func (p Profile) BaseConfig() sim.Config { return p.apply(sim.DefaultConfig()) }
