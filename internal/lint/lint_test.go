package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"sort"
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
	{"arenaescape", "nocsim/internal/flit/fixture"},
}

// checkFixture loads one fixture package and returns its findings for
// the rule under test, plus any suppression-hygiene findings (a
// malformed //noclint:allow in a fixture is a fixture bug).
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
		if f.Rule == rule || f.Rule == ruleSuppression {
			out = append(out, f)
		}
	}
	return out
}

// TestFixtures exercises every rule against its bad / good / allowed
// fixture triple: at least one true positive, a clean pass, and an
// honored //noclint:allow suppression.
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
			if allowed := checkFixture(t, l, filepath.Join(base, "allowed"), tc.asPath, tc.rule); len(allowed) != 0 {
				t.Errorf("%s/allowed: suppression not honored: %v", tc.rule, allowed)
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

// TestScopes pins the path scoping: result-producing roots are covered
// by determinism, the observability layer is not, and nothing outside
// the module is.
func TestScopes(t *testing.T) {
	det := analyzeDeterminism.Applies
	for path, want := range map[string]bool{
		"nocsim/internal/sim":         true,
		"nocsim/internal/sim/fixture": true,
		"nocsim/internal/routing":     true,
		"nocsim/internal/prof":        true,
		"nocsim/internal/obs":         false,
		"nocsim/internal/cli":         false,
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

// reportLine matches the stable "path:line:col: rule: message" format.
var reportLine = regexp.MustCompile(`^[^:]+\.go:\d+:\d+: [a-z]+: .+$`)

// TestMainExitCodes drives the CLI entry point: nonzero with a sorted,
// stable report on a bad fixture, zero on a clean one.
func TestMainExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-pkgpath", "nocsim/internal/sim/fixture", "testdata/determinism/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("bad fixture: exit %d (stderr %q), want 1", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("bad fixture: no report lines on stdout")
	}
	for _, line := range lines {
		if !reportLine.MatchString(line) {
			t.Errorf("report line %q does not match path:line:col: rule: msg", line)
		}
	}
	if !sort.StringsAreSorted(lines) {
		t.Errorf("report not sorted:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr %q missing the finding count", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = Main([]string{"-pkgpath", "nocsim/internal/sim/fixture", "testdata/determinism/good"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("good fixture: exit %d (stdout %q), want 0", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("good fixture: unexpected output %q", stdout.String())
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

// TestMainJSON drives -json: machine-readable findings on a bad
// fixture, and suppressed findings surfaced (but not counted) on the
// allowed fixture.
func TestMainJSON(t *testing.T) {
	type jf struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Rule       string `json:"rule"`
		Msg        string `json:"msg"`
		Suppressed bool   `json:"suppressed"`
	}
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-json", "-pkgpath", "nocsim/internal/sim/fixture", "testdata/determinism/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("bad fixture: exit %d (stderr %q), want 1", code, stderr.String())
	}
	var got []jf
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(got) == 0 {
		t.Fatal("bad fixture: empty JSON findings")
	}
	for _, f := range got {
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Msg == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
		if f.Suppressed {
			t.Errorf("bad fixture has no suppressions, but %+v is marked suppressed", f)
		}
	}

	stdout.Reset()
	stderr.Reset()
	code = Main([]string{"-json", "-pkgpath", "nocsim/internal/sim/fixture", "testdata/determinism/allowed"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("allowed fixture: exit %d (stdout %q), want 0", code, stdout.String())
	}
	got = nil
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	suppressed := 0
	for _, f := range got {
		if !f.Suppressed {
			t.Errorf("allowed fixture: active finding leaked into exit-0 run: %+v", f)
		} else {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Error("allowed fixture: waived findings missing from -json output")
	}
}

// TestMainWaivers drives -waivers: every //noclint:allow in the target
// comes back as "file:line: rule: reason" without type-checking.
func TestMainWaivers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-waivers", "-pkgpath", "nocsim/internal/sim/fixture", "testdata/determinism/allowed"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q), want 0", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no waivers reported for the allowed fixture")
	}
	waiverLine := regexp.MustCompile(`^[^:]+\.go:\d+: [a-z]+: .+$`)
	for _, line := range lines {
		if !waiverLine.MatchString(line) {
			t.Errorf("waiver line %q does not match file:line: rule: reason", line)
		}
	}
}

// TestRepositoryClean runs the full suite — all per-package rules plus
// the interprocedural program rules — over the module tip. The tree must
// stay noclint-clean, so CI failures reproduce locally as a test.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is slow")
	}
	active, _ := CheckAll(loadModule(t))
	for _, f := range active {
		t.Errorf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
	}
}

// TestWaiverBudget pins the module's //noclint:allow inventory: every
// waiver in the tree must be on this list, so adding one is a conscious,
// reviewed act rather than drift.
func TestWaiverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("parsing the whole module is slow enough to skip in -short")
	}
	want := []string{
		"internal/prof/prof.go: determinism",
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	var got []string
	for _, rel := range rels {
		p, err := l.Parse(filepath.Join(root, rel), importPathFor(rel))
		if err != nil {
			t.Fatalf("parse %s: %v", rel, err)
		}
		allows, bad := collectAllowances(p)
		for _, f := range bad {
			t.Errorf("malformed suppression: %s: %s", f.Pos, f.Msg)
		}
		for _, a := range allows {
			relFile, err := filepath.Rel(root, a.file)
			if err != nil {
				relFile = a.file
			}
			got = append(got, filepath.ToSlash(relFile)+": "+a.rule)
		}
	}
	sort.Strings(got)
	if !slicesEqual(got, want) {
		t.Errorf("waiver inventory drifted:\n got  %q\n want %q\nupdate the golden only with a reviewed justification", got, want)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkNoclintFullModule measures one whole-suite pass over the
// already-loaded module — the marginal cost of the rules themselves,
// excluding parsing and type-checking.
func BenchmarkNoclintFullModule(b *testing.B) {
	pkgs := loadModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active, _ := CheckAll(pkgs)
		if len(active) != 0 {
			b.Fatalf("module not clean: %v", active[0])
		}
	}
}
