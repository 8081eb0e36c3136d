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

	"nocsim/internal/sim"
)

// Profile sets the simulation effort of an experiment. Full approximates
// the paper's methodology; Quick is for benchmarks, smoke tests and
// iteration.
type Profile struct {
	Name string
	// Base is the configuration every run of the experiment starts from:
	// Table 2 at the profile's phase lengths, plus whatever the caller
	// puts on it (collectors, watchdog). A figure sets only the fields
	// its grid varies.
	Base sim.Config
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
}

// FullProfile is the publication-quality effort level.
func FullProfile() Profile {
	return Profile{
		Name:  "full",
		Base:  table2(2500, 4000, 15000),
		Rates: rateGrid(0.05, 0.95, 0.05),
		Tol:   0.01,

		TraceCycles: 20000,
	}
}

// QuickProfile trades precision for speed (used by go test -bench and CI).
func QuickProfile() Profile {
	return Profile{
		Name:  "quick",
		Base:  table2(400, 800, 3000),
		Rates: rateGrid(0.1, 0.7, 0.15),
		Tol:   0.05,

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

// table2 is the Table 2 baseline at the given phase lengths.
func table2(warmup, measure, drain int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = warmup, measure, drain
	return cfg
}
