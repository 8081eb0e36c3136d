package main

import (
	"fmt"
	"runtime"

	"nocsim"
	"nocsim/internal/sim"
)

// op is one complete simulation.
type op struct {
	label string
	// run goes through the public entry point a user would call; the
	// end-to-end pass times nothing else.
	run func() (*nocsim.Result, error)
	// replica returns the config and injectors run assembles inside, so
	// that the traced pass can build the Simulation itself and hold it.
	// The digest check proves the two are the same simulation.
	replica func() (nocsim.Config, []nocsim.Injector, error)
}

// workload is a fixed list of ops; a pass executes the list once.
type workload struct {
	name string
	why  string
	// ops is the nominal list length; build returns that many.
	ops int
	// parallel workloads hand each pass to sim.Map on several workers;
	// the others run from a single goroutine.
	parallel bool
	// build makes the op list from the seed. It is part of set-up.
	build func(seed int64) ([]op, error)
}

// nominalPasses is the pass count the tail percentile of each workload
// is chosen for, so that it does not change with the speed of the run.
const nominalPasses = 5

// tailPct is the percentile run_ms_tail reports on this workload.
func (w *workload) tailPct() float64 { return tailPercentile(w.ops * nominalPasses) }

// jobs is the worker count of a pass.
func (w *workload) jobs() int {
	if !w.parallel {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// opSeed derives the seed of op i, so that the simulator only ever sees
// generated configs.
func opSeed(seed int64, workload string, i int) int64 {
	return sim.DeriveSeed(seed, fmt.Sprintf("%s/%d", workload, i))
}

// table2 returns the paper's Table 2 configuration with the given
// algorithm, seed and phase lengths.
func table2(alg string, seed, warmup, measure, drain int64) nocsim.Config {
	cfg := nocsim.DefaultConfig()
	cfg.Algorithm = alg
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = warmup, measure, drain
	return cfg
}

// patternOp is a Bernoulli run of a named pattern: nocsim.Run for
// single-flit packets, nocsim.RunSized otherwise.
func patternOp(label string, cfg nocsim.Config, pattern string, rate float64, lo, hi int) op {
	return op{
		label: label,
		run: func() (*nocsim.Result, error) {
			if lo == 1 && hi == 1 {
				return nocsim.Run(cfg, pattern, rate)
			}
			return nocsim.RunSized(cfg, pattern, rate, lo, hi)
		},
		replica: func() (nocsim.Config, []nocsim.Injector, error) {
			inj, err := nocsim.NewPatternInjector(cfg, pattern, rate, lo, hi)
			return cfg, []nocsim.Injector{inj}, err
		},
	}
}

var pairAlgorithms = []string{"footprint", "dbar"}

// sweepAlgorithms are the seven algorithms of the synthetic figures
// (exp.SyntheticAlgorithms), named here so that the end-to-end pass
// stays on the root package.
var sweepAlgorithms = []string{"footprint", "dbar", "oddeven", "dor", "dbar+xordet", "oddeven+xordet", "dor+xordet"}

var workloads = []*workload{
	{
		name: "uniform_mid",
		why:  "8x8 Table 2 mesh, footprint, uniform 0.30: VC allocation is over half the cycle, so allocator, Route and view changes show",
		ops:  20,
		build: func(seed int64) ([]op, error) {
			ops := make([]op, 20)
			for i := range ops {
				cfg := table2("footprint", opSeed(seed, "uniform_mid", i), 400, 800, 3000)
				ops[i] = patternOp(fmt.Sprintf("uniform0.30/%d", i), cfg, "uniform", 0.30, 1, 1)
			}
			return ops, nil
		},
	},
	{
		name: "hotspot_sat",
		why:  "Figure 9 hotspot flows past saturation, footprint and dbar: blocked inputs re-request every cycle, 4x the host cost per cycle",
		// Well past the knee, at 0.70: at the issue's 0.45 some seeds drain
		// and some do not, and an op's host cost varies threefold with its
		// seed, which a list this short does not average out.
		ops: 12,
		build: func(seed int64) ([]op, error) {
			ops := make([]op, 12)
			for i := range ops {
				alg := pairAlgorithms[i%len(pairAlgorithms)]
				cfg := table2(alg, opSeed(seed, "hotspot_sat", i), 300, 600, 600)
				ops[i] = op{
					label: fmt.Sprintf("hotspot0.70/%s/%d", alg, i),
					run: func() (*nocsim.Result, error) {
						pt, err := sim.HotspotRun(cfg, 0.30, 0.70)
						return pt.Result, err
					},
					replica: func() (nocsim.Config, []nocsim.Injector, error) {
						return hotspotReplica(cfg, 0.30, 0.70)
					},
				}
			}
			return ops, nil
		},
	},
	{
		name: "dor_16x16_low",
		why:  "Figure 8 mesh size, dor, uniform 0.05: four times the router state, trivial Route, so worklist, Step overhead and memory layout dominate",
		ops:  20,
		build: func(seed int64) ([]op, error) {
			ops := make([]op, 20)
			for i := range ops {
				cfg := table2("dor", opSeed(seed, "dor_16x16_low", i), 300, 700, 3000)
				cfg.Width, cfg.Height = 16, 16
				ops[i] = patternOp(fmt.Sprintf("uniform0.05/16x16/%d", i), cfg, "uniform", 0.05, 1, 1)
			}
			return ops, nil
		},
	},
	{
		name: "trace_x264_canneal",
		why:  "Figure 10 lightest PARSEC pair replayed with dependencies: bursty and mostly idle, so quiescence and worklist work show and the allocator does not",
		ops:  20,
		build: func(seed int64) ([]op, error) {
			const traceCycles = 3000
			ops := make([]op, 20)
			var merged []nocsim.TraceRecord
			for i := range ops {
				alg := pairAlgorithms[i%len(pairAlgorithms)]
				cfg := table2(alg, opSeed(seed, "trace_x264_canneal", i), 0, traceCycles, 4*traceCycles)
				if i%len(pairAlgorithms) == 0 {
					// One trace per pair of ops: both algorithms replay it.
					k := i / len(pairAlgorithms)
					a, err := nocsim.GeneratePARSEC(cfg, "x264", traceCycles,
						sim.DeriveSeed(seed, fmt.Sprintf("trace_x264_canneal/trace/%d/x264", k)))
					if err != nil {
						return nil, err
					}
					b, err := nocsim.GeneratePARSEC(cfg, "canneal", traceCycles,
						sim.DeriveSeed(seed, fmt.Sprintf("trace_x264_canneal/trace/%d/canneal", k)))
					if err != nil {
						return nil, err
					}
					merged = nocsim.MergeTraces(a, b)
				}
				records := merged
				ops[i] = op{
					label: fmt.Sprintf("x264+canneal/%s/%d", alg, i),
					run: func() (*nocsim.Result, error) {
						s, err := nocsim.New(cfg, nocsim.NewTracePlayer(records))
						if err != nil {
							return nil, err
						}
						return s.Run(), nil
					},
					replica: func() (nocsim.Config, []nocsim.Injector, error) {
						return cfg, []nocsim.Injector{nocsim.NewTracePlayer(records)}, nil
					},
				}
			}
			return ops, nil
		},
	},
	{
		name:     "sweep_jobs",
		why:      "a 42-cell figure sweep on a worker pool, seven algorithms, single- and multi-flit: pool, straggler, sim.New and GC-pressure changes show only here",
		ops:      42,
		parallel: true,
		build: func(seed int64) ([]op, error) {
			type traffic struct {
				pattern string
				lo, hi  int
			}
			var ops []op
			for _, tr := range []traffic{{"uniform", 1, 1}, {"transpose", 1, 6}} {
				for _, alg := range sweepAlgorithms {
					for _, rate := range []float64{0.1, 0.25, 0.4} {
						cfg := table2(alg, opSeed(seed, "sweep_jobs", len(ops)), 400, 800, 3000)
						label := fmt.Sprintf("%s%d-%d/%s/%.2f", tr.pattern, tr.lo, tr.hi, alg, rate)
						ops = append(ops, patternOp(label, cfg, tr.pattern, rate, tr.lo, tr.hi))
					}
				}
			}
			return ops, nil
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
