package exp

import (
	"slices"
	"strings"
	"testing"

	"nocsim/internal/sim"
)

// TestComparisonsArePaired holds DESIGN.md's rule that every headline
// comparison is paired. In each cell of Figures 7–10 the Footprint run
// and the DBAR run start from the same seed, under labels that differ
// only in the algorithm; a bisection is checked at its first, zero-load
// probe, since later probes follow each algorithm's own verdicts.
// Figure 9's two curves cover the same rates.
func TestComparisonsArePaired(t *testing.T) {
	p := tinyProfile()
	check := func(figure string, cell int, fp, db *sim.Result) {
		t.Helper()
		if fp.Config.Algorithm != "footprint" || db.Config.Algorithm != "dbar" {
			t.Errorf("%s cell %d: algorithms %q and %q, want footprint and dbar",
				figure, cell, fp.Config.Algorithm, db.Config.Algorithm)
		}
		if want := strings.Replace(fp.Config.RunLabel, "footprint", "dbar", 1); db.Config.RunLabel != want {
			t.Errorf("%s cell %d: labels %q and %q differ in more than the algorithm",
				figure, cell, fp.Config.RunLabel, db.Config.RunLabel)
		}
		if fp.Config.Seed != db.Config.Seed {
			t.Errorf("%s cell %d: %q has seed %d, %q has seed %d", figure, cell,
				fp.Config.RunLabel, fp.Config.Seed, db.Config.RunLabel, db.Config.Seed)
		}
	}

	f7, err := Figure7(p, "uniform", []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f7.Searches {
		check("Figure 7", i, s.FP.Runs[0], s.DB.Runs[0])
	}
	f8, err := Figure8(p, [][2]int{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f8.Searches {
		check("Figure 8", i, s.FP.Runs[0], s.DB.Runs[0])
	}
	f9, err := Figure9(p, 0.3, []float64{0.1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Points) != len(f9.Rates) {
		t.Fatalf("Figure 9: %d points for %d rates", len(f9.Points), len(f9.Rates))
	}
	for i, pt := range f9.Points {
		if pt.FP.Rate != f9.Rates[i] || pt.DB.Rate != f9.Rates[i] {
			t.Errorf("Figure 9 cell %d: rates %v and %v, want %v", i, pt.FP.Rate, pt.DB.Rate, f9.Rates[i])
		}
		check("Figure 9", i, pt.FP.Result, pt.DB.Result)
	}
	f10, err := Figure10(p, [][2]string{{"x264", "canneal"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range slices.Concat(f10.PairRuns, f10.SoloRuns) {
		check("Figure 10", i, rs.FP, rs.DB)
	}
}
