package sim

import (
	"reflect"
	"testing"

	"nocsim/internal/trace"
	"nocsim/internal/traffic"
)

// TestActiveSetMatchesStepAll pins the wake-list contract: Step visiting
// only woken nodes and busy links must be bit-identical to every node and
// every link being on its list every cycle (network.Config.StepAll,
// reached through Config.stepAll). Who wakes a node is argued beside
// network.Step and in DESIGN.md ("Wake lists") — a skipped node's cycle
// is a no-op — and this test holds the argument against the
// implementation for every routing algorithm, over runs long enough to
// include warmup, saturated measurement and drain, where a wrongly
// skipped router would reorder arbitration or strand a flit and shift
// every downstream latency sample. The traffic shapes differ in what
// they make of the lists: single-flit uniform keeps most nodes awake,
// multi-flit transpose holds wormholes across sleeping neighbours,
// Table 3's hotspots block heads behind slow credits, and a trace
// player offers in dependency-gated bursts between idle stretches.
func TestActiveSetMatchesStepAll(t *testing.T) {
	sweep := func(pattern string, size traffic.SizeFn, rates ...float64) func(Config) ([]SweepPoint, error) {
		return func(cfg Config) ([]SweepPoint, error) {
			return LatencyThroughput(cfg, pattern, size, rates, 1)
		}
	}
	scenarios := []struct {
		name string
		run  func(Config) ([]SweepPoint, error)
	}{
		{"uniform", sweep("uniform", traffic.FixedSize(1), 0.1, 0.3)},
		{"transpose-multiflit", sweep("transpose", traffic.UniformSize(1, 6), 0.25)},
		{"hotspot", func(cfg Config) ([]SweepPoint, error) {
			cfg.Width, cfg.Height = 8, 8 // Table 3's flows
			pt, err := HotspotRun(cfg, 0.3, 0.5)
			return []SweepPoint{{Rate: pt.Rate, Result: pt.Result}}, err
		}},
		{"trace-player", func(cfg Config) ([]SweepPoint, error) {
			w, err := trace.WorkloadByName("x264")
			if err != nil {
				return nil, err
			}
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1500, 6000
			s, err := New(cfg, trace.NewPlayer(trace.Generate(w, cfg.Mesh(), cfg.MeasureCycles, cfg.Seed)))
			if err != nil {
				return nil, err
			}
			return []SweepPoint{{Result: s.Run()}}, nil
		}},
	}
	for _, alg := range determinismAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			for _, sc := range scenarios {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					t.Parallel()
					cfg := testConfig()
					cfg.Algorithm = alg
					cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000

					worklist, err := sc.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.stepAll = true
					stepAll, err := sc.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, pt := range worklist {
						if pt.Result.MeasuredEjected == 0 {
							t.Fatal("no measured packet ejected: the comparison is vacuous")
						}
					}
					w, s := scrubPoints(worklist), scrubPoints(stepAll)
					if !reflect.DeepEqual(w, s) {
						t.Errorf("wake lists diverged from step-all:\nwake lists: %+v\nstep-all: %+v",
							dump(w), dump(s))
					}
				})
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
