package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCases pairs each rule with the synthetic import path that puts
// its fixtures inside the rule's scope.
var fixtureCases = []struct {
	rule   string
	asPath string
}{
	{"determinism", "nocsim/internal/sim/fixture"},
	{"exhaustive", "nocsim/internal/lint/fixture"},
	{"maporder", "nocsim/internal/lint/fixture"},
	{"routepurity", "nocsim/internal/routing/fixture"},
	{"seedident", "nocsim/internal/sim/fixture"},
}

// checkFixture loads one fixture package and returns its findings for
// the rule under test.
func checkFixture(t *testing.T, l *Loader, dir, asPath, rule string) []Finding {
	t.Helper()
	p, tfs, err := l.Load(dir, asPath)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, f := range tfs {
		t.Fatalf("fixture %s does not type-check: %s: %s", dir, f.Pos, f.Msg)
	}
	var out []Finding
	for _, f := range Check(p) {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestFixtures exercises every rule against its bad / good fixture
// pair: at least one true positive and a clean pass.
func TestFixtures(t *testing.T) {
	l := NewLoader()
	for _, tc := range fixtureCases {
		t.Run(tc.rule, func(t *testing.T) {
			base := filepath.Join("testdata", tc.rule)
			if bad := checkFixture(t, l, filepath.Join(base, "bad"), tc.asPath, tc.rule); len(bad) == 0 {
				t.Errorf("%s/bad: want at least one finding, got none", tc.rule)
			}
			if good := checkFixture(t, l, filepath.Join(base, "good"), tc.asPath, tc.rule); len(good) != 0 {
				t.Errorf("%s/good: unexpected findings: %v", tc.rule, good)
			}
		})
	}
}

// TestRoutePurityRootsAtDecide pins the rule's second root: the router
// calls Decide, not Route, so a Decide that writes through its context
// must be a finding in its own right (the fixture's type has no Route).
func TestRoutePurityRootsAtDecide(t *testing.T) {
	bad := checkFixture(t, NewLoader(), filepath.Join("testdata", "routepurity", "bad"),
		"nocsim/internal/routing/fixture", "routepurity")
	for _, f := range bad {
		if filepath.Base(f.Pos.Filename) == "decide.go" {
			if !strings.Contains(f.Msg, "ctx.LastDir") || !strings.Contains(f.Msg, "(*StickyAlg).Decide") {
				t.Errorf("decide.go finding %q, want the ctx.LastDir write under (*StickyAlg).Decide", f.Msg)
			}
			return
		}
	}
	t.Errorf("no finding in bad/decide.go; Decide is not a routepurity root: %v", bad)
}

// TestRoutePurityFollowsStateMethods pins the walk from Decide into the
// methods of the state it reads: the algorithms call routing.State's read
// methods, and one of those writing a field is the impurity the rule
// exists for (the fixture's Decide body is clean).
func TestRoutePurityFollowsStateMethods(t *testing.T) {
	bad := checkFixture(t, NewLoader(), filepath.Join("testdata", "routepurity", "bad"),
		"nocsim/internal/routing/fixture", "routepurity")
	for _, f := range bad {
		if filepath.Base(f.Pos.Filename) == "state.go" {
			if !strings.Contains(f.Msg, "s.Reads") || !strings.Contains(f.Msg, "(*CountingAlg).Decide") {
				t.Errorf("state.go finding %q, want the s.Reads write under (*CountingAlg).Decide", f.Msg)
			}
			return
		}
	}
	t.Errorf("no finding in bad/state.go; a State method reached from Decide is not walked: %v", bad)
}

// TestDeterminismExemptsProfNowByName pins the rule's one exemption: it
// is the function Now of internal/prof, not the package — a second
// wall-clock read there is a finding — and not the name, which buys
// nothing under any other path.
func TestDeterminismExemptsProfNowByName(t *testing.T) {
	l := NewLoader()
	dir := filepath.Join("testdata", "determinism", "prof")
	got := checkFixture(t, l, dir, "nocsim/internal/prof", "determinism")
	if len(got) != 1 || !strings.Contains(got[0].Msg, "time.Since") {
		t.Errorf("as internal/prof: findings %v, want exactly the time.Since in Elapsed", got)
	}
	if got := checkFixture(t, l, dir, "nocsim/internal/sim/prof", "determinism"); len(got) != 2 {
		t.Errorf("as internal/sim/prof: findings %v, want Now's time.Now and Elapsed's time.Since", got)
	}
}

// TestScopes pins the path scoping: result-producing roots — the engine,
// where the traffic is made and where it is counted — are covered by
// determinism, the observability layer is not, and nothing outside the
// module is.
func TestScopes(t *testing.T) {
	det := analyzeDeterminism.Applies
	for path, want := range map[string]bool{
		"nocsim/internal/sim":         true,
		"nocsim/internal/sim/fixture": true,
		"nocsim/internal/exp":         true,
		"nocsim/internal/router":      true,
		"nocsim/internal/routing":     true,
		"nocsim/internal/network":     true,
		"nocsim/internal/prof":        true,
		"nocsim/internal/traffic":     true,
		"nocsim/internal/trace":       true,
		"nocsim/internal/flit":        true,
		"nocsim/internal/alloc":       true,
		"nocsim/internal/topo":        true,
		"nocsim/internal/stats":       true,
		"nocsim/internal/obs":         false,
		"nocsim/internal/simx":        false,
		"other/internal/sim":          false,
	} {
		if got := det(path); got != want {
			t.Errorf("determinism applies(%s) = %v, want %v", path, got, want)
		}
	}
	if inModule("nocsimx/internal/sim") {
		t.Error("inModule must not match a foreign module sharing the prefix")
	}
}

// loadModule type-checks every package in the module with one shared
// loader, failing the test on load errors.
func loadModule(t testing.TB) []*Package {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	var pkgs []*Package
	for _, rel := range rels {
		p, tfs, err := l.Load(filepath.Join(root, rel), importPathFor(rel))
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		for _, f := range tfs {
			t.Errorf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// TestRepositoryClean is noclint's one entry point: the five rules over
// every package of the module tip. The tree must stay clean; each
// finding is one "path:line:col: rule: message" failure line.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow")
	}
	for _, f := range Check(loadModule(t)...) {
		t.Errorf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
	}
}

// BenchmarkNoclintFullModule measures one whole-suite pass over the
// already-loaded module — the marginal cost of the rules themselves,
// excluding parsing and type-checking.
func BenchmarkNoclintFullModule(b *testing.B) {
	pkgs := loadModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := Check(pkgs...); len(fs) != 0 {
			b.Fatalf("module not clean: %v", fs[0])
		}
	}
}
