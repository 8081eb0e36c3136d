// Package lint implements noclint, the repository's domain-aware static
// analysis suite. The simulator's headline guarantee — bit-identical
// results at any -jobs value, paired seeds per traffic cell — is dynamic
// by nature: a golden test only catches nondeterminism on the path it
// happens to execute. noclint encodes the invariants behind that
// guarantee as five machine-checked rules over the module's syntax trees
// and type information, so a future change cannot silently reintroduce a
// wall-clock read, an unordered map walk in an exporter, a side effect
// in a routing function, or ad-hoc seed arithmetic. Each rule is kept
// because a seeded bug of its kind passes every other test (DESIGN.md,
// "Enforced invariants", has the audit).
//
// The suite is pure standard library (go/parser + go/types with the
// source importer) and has one entry point, the package's own test:
//
//	go test ./internal/lint
//
// TestRepositoryClean fails with one "path:line:col: rule: message" line
// per finding. There is no flag and no waiver comment: a rule that must
// not apply somewhere says so in its own code, by name.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package bundles one type-checked package for the analyzers: its syntax
// trees, the shared file set, and full type information.
type Package struct {
	// Path is the package's import path. Fixture packages are loaded
	// under synthetic paths so path-scoped rules apply to them.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyzer is one checked invariant: a rule name, a package-path scope,
// and the checker itself.
type Analyzer struct {
	Name string
	// Applies reports whether the rule is in force for a package path.
	Applies func(pkgPath string) bool
	Run     func(p *Package) []Finding
}

// Analyzers returns the full rule suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzeDeterminism,
		analyzeExhaustive,
		analyzeMapOrder,
		analyzeRoutePurity,
		analyzeSeedIdentity,
	}
}

// ruleTypecheck is the rule name of the loader's own findings.
const ruleTypecheck = "typecheck"

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// SortFindings orders findings by file, line, column, rule and message —
// a total order, so two runs over the same tree report identically.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// deterministicRoots are the packages whose code feeds simulation
// results: everything under them must be a pure function of Config and
// seed — the engine (sim, exp, network, routing, alloc, flit, topo),
// where the traffic is made (traffic, trace) and where it is counted
// (stats). obs and cmd/nocsim sit outside — they observe and report runs
// without feeding results back in.
// internal/prof is in scope on purpose: it exists to concentrate the
// module's one sanctioned wall-clock read in a single function
// (prof.Now, which determinism exempts by name), so a new time.Now
// anywhere else in these roots — including prof itself — is a finding.
var deterministicRoots = []string{
	"nocsim/internal/sim",
	"nocsim/internal/exp",
	"nocsim/internal/routing",
	"nocsim/internal/network",
	"nocsim/internal/prof",
	"nocsim/internal/traffic",
	"nocsim/internal/trace",
	"nocsim/internal/flit",
	"nocsim/internal/alloc",
	"nocsim/internal/topo",
	"nocsim/internal/stats",
}

// underAny reports whether path is one of roots or nested below one.
func underAny(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// inModule reports whether path belongs to this module (module-wide
// rules apply to it).
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// modulePath is the import path of the module under analysis.
const modulePath = "nocsim"

// Loader parses and type-checks packages against a shared file set and
// source importer, so repeated loads reuse the checked dependency graph.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader. The source importer resolves imports by
// type-checking dependencies from source; it must run with the module
// root as working directory so module-relative imports resolve.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load parses the non-test Go files of dir and type-checks them as
// import path asPath. Type errors are returned as findings (rule
// "typecheck") rather than aborting, so a partially broken tree still
// gets the rest of its report.
func (l *Loader) Load(dir, asPath string) (*Package, []Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var tfs []Finding
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				tfs = append(tfs, Finding{Pos: te.Fset.Position(te.Pos), Rule: ruleTypecheck, Msg: te.Msg})
			} else {
				tfs = append(tfs, Finding{Rule: ruleTypecheck, Msg: err.Error()})
			}
		},
	}
	pkg, _ := conf.Check(asPath, l.fset, files, info)
	return &Package{Path: asPath, Fset: l.fset, Files: files, Pkg: pkg, Info: info}, tfs, nil
}

// Check runs every applicable analyzer on each package and returns the
// findings, sorted.
func Check(pkgs ...*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range Analyzers() {
			if a.Applies(p.Path) {
				out = append(out, a.Run(p)...)
			}
		}
	}
	SortFindings(out)
	return out
}

// ModuleRoot walks up from dir to the enclosing go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// PackageDirs lists the directories under root holding at least one
// non-test Go file, skipping testdata, vendor and hidden trees. Paths
// come back sorted and root-relative ("." for the root package).
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	dirs = compactStrings(dirs)
	return dirs, nil
}

// compactStrings removes adjacent duplicates from a sorted slice.
func compactStrings(s []string) []string {
	out := s[:0]
	for _, v := range s {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// importPathFor maps a root-relative package directory to its import
// path.
func importPathFor(rel string) string {
	if rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}
