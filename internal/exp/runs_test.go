package exp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/traffic"
)

// TestEveryFigureReturnsItsRuns holds the rule cmd/nocsim's finish is
// built on: every figure hands back every simulation it made, bisection
// probes included, each under a label whose slug is unique within the
// figure (finish names files by it) and names its rate once, and each
// carrying whatever collector the profile asked for.
func TestEveryFigureReturnsItsRuns(t *testing.T) {
	p := tinyProfile()
	p.Base.Obs.Anatomy = true
	vcCounts, sizes := []int{2, 4}, [][2]int{{4, 4}}
	hotRates, pairs := []float64{0.1, 0.3}, [][2]string{{"x264", "canneal"}}

	check := func(name string, runs []*sim.Result, err error, atLeast, atMost int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(runs) < atLeast || len(runs) > atMost {
			t.Errorf("%s: %d runs, want %d..%d", name, len(runs), atLeast, atMost)
		}
		slugs := map[string]string{}
		for i, r := range runs {
			if r == nil {
				t.Fatalf("%s: run %d is nil", name, i)
			}
			label := r.Config.RunLabel
			if other, dup := slugs[obs.Slug(label)]; dup || label == "" {
				t.Errorf("%s: label %q shares its slug with %q", name, label, other)
			}
			slugs[obs.Slug(label)] = label
			if strings.Count(label, "rate=") > 1 {
				t.Errorf("%s: label %q names its rate twice", name, label)
			}
			if r.Anatomy == nil {
				t.Errorf("%s: run %q carries no anatomy though the profile asked for one", name, label)
			}
		}
	}

	// A curve stops after two saturated points in a row, which a grid of
	// two rates cannot trim: one run per (algorithm, rate).
	nAlg, nRate := len(SyntheticAlgorithms()), len(p.Rates)
	f5, err := Figure5(p, "uniform")
	check("Figure 5", f5.Runs(), err, nAlg*nRate, nAlg*nRate)
	f6, err := Figure6(p, "uniform")
	check("Figure 6", f6.Runs(), err, nAlg*nRate, nAlg*nRate)
	// A bisection is the zero-load probe plus at least one step, and at
	// most log2(1/Tol)+1 of them.
	steps := 1 + int(math.Ceil(math.Log2(1/p.Tol)))
	f7, err := Figure7(p, "uniform", vcCounts)
	check("Figure 7", f7.Runs(), err, 2*len(vcCounts)*2, steps*len(vcCounts)*2)
	f8, err := Figure8(p, sizes)
	check("Figure 8", f8.Runs(), err, 2*len(sizes)*3*2, steps*len(sizes)*3*2)
	f9, err := Figure9(p, 0.3, hotRates)
	check("Figure 9", f9.Runs(), err, 2*len(hotRates), 2*len(hotRates))
	// One paired replay and two solo replays, each under both algorithms.
	f10, err := Figure10(p, pairs)
	check("Figure 10", f10.Runs(), err, 2*(len(pairs)+2), 2*(len(pairs)+2))

	p.Base.Obs.Anatomy = false // the study turns its collector on itself
	an, err := Anatomy(p, "uniform", nil)
	check("Anatomy", an.Runs(), err, len(AnatomyAlgorithms())*nRate, len(AnatomyAlgorithms())*nRate)
	if got := an.Runs()[0].Config.RunLabel; got != "anatomy uniform/footprint rate=0.100" {
		t.Errorf("first anatomy label = %q", got)
	}

	// The study used to tag its labels with the rate itself, before
	// sim.RunLoad tagged them again. Dropping that decoration moves no
	// simulated bit — the seed key (load/<pattern>/rate=…) does not read
	// the label: each cell rerun under the old label is the same run.
	scrub := func(r *sim.Result) sim.Result {
		c := *r
		c.Config, c.Runtime, c.Obs = sim.Config{}, sim.RuntimeStats{}, nil
		return c
	}
	for _, c := range an.Curves {
		for _, pt := range c.Points {
			cfg := pt.Result.Config
			cfg.Seed = p.Base.Seed
			cfg.RunLabel = fmt.Sprintf("anatomy uniform/%s rate=%.2f", c.Algorithm, pt.Rate)
			old, err := sim.RunLoad(cfg, "uniform", traffic.FixedSize(1), pt.Rate)
			if err != nil {
				t.Fatal(err)
			}
			if old.Config.RunLabel == pt.Result.Config.RunLabel {
				t.Fatalf("rerun of %q did not change the label", old.Config.RunLabel)
			}
			if !reflect.DeepEqual(scrub(old), scrub(pt.Result)) {
				t.Errorf("%s: result moved with the label decoration:\nold %+v\nnew %+v",
					pt.Result.Config.RunLabel, scrub(old), scrub(pt.Result))
			}
		}
	}
}
