package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestCurveSetDeterministicAcrossJobs is the harness-level golden test:
// a whole figure's curve set formats identically whether the grid ran
// serially or on the worker pool (the saturation early-exit trimming
// included).
func TestCurveSetDeterministicAcrossJobs(t *testing.T) {
	algs := []string{"footprint", "dbar", "dor"}

	p := tinyProfile()
	p.Jobs = 1
	serial, err := curveSet(p, "Figure 5", "uniform", nil, algs)
	if err != nil {
		t.Fatal(err)
	}
	p.Jobs = 4
	par, err := curveSet(p, "Figure 5", "uniform", nil, algs)
	if err != nil {
		t.Fatal(err)
	}
	if s, g := serial.Format(), par.Format(); s != g {
		t.Errorf("curve set differs at jobs=1 vs jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", s, g)
	}
}

// TestFigure10DeterministicAcrossJobs covers the trace harness: per-run
// trace generation and simulation seeds must make the paired-workload
// study independent of the worker count.
func TestFigure10DeterministicAcrossJobs(t *testing.T) {
	pairs := [][2]string{{"x264", "canneal"}}

	p := tinyProfile()
	p.Jobs = 1
	serial, err := Figure10(p, pairs)
	if err != nil {
		t.Fatal(err)
	}
	p.Jobs = 4
	par, err := Figure10(p, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if s, g := serial.Format(), par.Format(); s != g {
		t.Errorf("Figure 10 differs at jobs=1 vs jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", s, g)
	}
}

// TestParallelSweepLabelsDistinct runs a figure on the worker pool and
// checks that every run of the sweep carries a distinct, rate-tagged
// label — the shared-config mutation this engine replaced used to
// clobber them. Under -race it also proves the curve workers share
// nothing they write.
func TestParallelSweepLabelsDistinct(t *testing.T) {
	p := tinyProfile()
	p.Jobs = 4

	cs, err := curveSet(p, "Figure 5", "uniform", nil, []string{"footprint", "dbar", "dor", "oddeven"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Curves) != 4 {
		t.Fatalf("curves = %d", len(cs.Curves))
	}

	seen := map[string]bool{}
	for _, c := range cs.Curves {
		for _, pt := range c.Points {
			label := pt.Result.Config.RunLabel
			if want := fmt.Sprintf("rate=%.3f", pt.Rate); !strings.Contains(label, c.Algorithm) || !strings.HasSuffix(label, want) {
				t.Errorf("label %q does not name its run (%s, %s)", label, c.Algorithm, want)
			}
			if seen[label] {
				t.Errorf("label %q used by more than one run; per-run identity must be unique", label)
			}
			seen[label] = true
		}
	}
}

// TestConfigIsPlainData holds the sharing rule of sim.Map: a worker's
// copy of a Profile, and so of the sim.Config it carries as Base, is
// private because it cannot reach a pointer, an interface, a channel or
// a sync type. Funcs (constructors and clocks, called but never
// written) and maps and slices of plain data (read-only once the grid
// fans out) are allowed.
func TestConfigIsPlainData(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		if strings.HasPrefix(typ.PkgPath(), "sync") {
			t.Errorf("%s is a %s", path, typ)
			return
		}
		switch typ.Kind() {
		case reflect.Ptr, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s (%s): a copy would share it", path, typ.Kind(), typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Map:
			check(path+"[key]", typ.Key())
			check(path+"[]", typ.Elem())
		case reflect.Slice, reflect.Array:
			check(path+"[]", typ.Elem())
		}
	}
	check("exp.Profile", reflect.TypeOf(Profile{}))
}
