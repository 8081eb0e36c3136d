package sim

import (
	"reflect"
	"testing"

	"nocsim/internal/traffic"
)

// TestActiveSetMatchesStepAll pins the worklist contract: Step visiting
// only active nodes must be bit-identical to stepping every node every
// cycle (network.Config.StepAll, reached through Config.stepAll). The active-set
// admission rules are proved in network.computeActive — a skipped node's
// cycle is a no-op — and this test holds the proof against the
// implementation for every routing algorithm, over a sweep long enough
// to include warmup, saturated measurement and drain, where a wrongly
// skipped router would reorder arbitration or strand a flit and shift
// every downstream latency sample.
func TestActiveSetMatchesStepAll(t *testing.T) {
	rates := []float64{0.1, 0.3}
	for _, alg := range determinismAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			cfg.Algorithm = alg
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000

			worklist, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.stepAll = true
			stepAll, err := LatencyThroughput(cfg, "uniform", traffic.FixedSize(1), rates, 1)
			if err != nil {
				t.Fatal(err)
			}
			w, s := scrubPoints(worklist), scrubPoints(stepAll)
			if !reflect.DeepEqual(w, s) {
				t.Errorf("active-set worklist diverged from step-all:\nworklist: %+v\nstep-all: %+v",
					dump(w), dump(s))
			}
		})
	}
}

// TestActiveSetMatchesStepAllWedged repeats the comparison on the wedged
// fixture — a stalled fabric full of quiescent-but-blocked routers is
// exactly where an over-eager admission rule could skip a node that
// still owes a credit or a watchdog-visible state transition.
func TestActiveSetMatchesStepAllWedged(t *testing.T) {
	run := func(stepAll bool) *Result {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = 2, 2
		cfg.VCs = 2
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 400
		cfg.SlowEndpoints = map[int]int{3: 1 << 30}
		cfg.stepAll = stepAll
		gen := &traffic.Generator{
			Nodes:   []int{0, 1, 2},
			Pattern: traffic.Permutation{Label: "wedge", Flows: map[int]int{0: 3, 1: 3, 2: 3}},
			Rate:    1,
		}
		res := MustNew(cfg, gen).Run()
		pts := scrubPoints([]SweepPoint{{Result: res}})
		return pts[0].Result
	}
	worklist, stepAll := run(false), run(true)
	if !reflect.DeepEqual(worklist, stepAll) {
		t.Errorf("wedged run diverged:\nworklist: %+v\nstep-all: %+v", *worklist, *stepAll)
	}
}
