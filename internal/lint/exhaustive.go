package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// analyzeExhaustive enforces enum coverage: every switch over one of
// the module's integer enum types — router port directions
// (topo.Direction), packet measurement classes (flit.Class), VC request
// priorities (alloc.Priority), lifecycle event kinds (obs.EventKind) —
// must either list every constant of the type or carry a default that
// panics. A silent default turns "someone added a direction" into a
// mis-routed flit instead of a build-time error; the paper's turn-model
// legality arguments assume the port set is closed.
//
// Enum types are detected, not hard-coded: any named integer type
// declared in this module with at least two package-level constants
// counts. Constants named num* are sentinels (numDirections) and are
// not required.
var analyzeExhaustive = &Analyzer{
	Name:    "exhaustive",
	Applies: inModule,
	Run:     runExhaustive,
}

// enumConstant is one required constant of an enum type.
type enumConstant struct {
	name string
	val  int64
}

// enumConstantsOf lists the package-level constants of the named type
// declared alongside it, excluding num* sentinels. It returns nil when
// the type is not an enum for our purposes (fewer than two constants,
// non-integer underlying, declared outside the module).
func enumConstantsOf(n *types.Named) []enumConstant {
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
		return nil
	}
	basic, ok := n.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	scope := obj.Pkg().Scope()
	var out []enumConstant
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), n) {
			continue
		}
		if strings.HasPrefix(name, "num") {
			continue // cardinality sentinel, not a real enum member
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		if !ok {
			continue
		}
		out = append(out, enumConstant{name: name, val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val < out[j].val })
	if len(out) < 2 {
		return nil
	}
	return out
}

func runExhaustive(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			sw, ok := node.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			n := namedType(p.Info.Types[sw.Tag].Type)
			if n == nil {
				return true
			}
			enum := enumConstantsOf(n)
			if enum == nil {
				return true
			}

			covered := map[int64]bool{}
			verifiable := true
			var defaultClause *ast.CaseClause
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					defaultClause = cc
					continue
				}
				for _, e := range cc.List {
					tv := p.Info.Types[e]
					if tv.Value == nil {
						verifiable = false // a non-constant case defeats coverage proof
						continue
					}
					if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
						covered[v] = true
					}
				}
			}

			var missing []string
			for _, c := range enum {
				if !covered[c.val] {
					missing = append(missing, c.name)
				}
			}
			if verifiable && len(missing) == 0 {
				return true
			}
			if defaultClause != nil && clausePanics(p, defaultClause) {
				return true
			}
			label := typeLabel(n)
			if !verifiable {
				out = append(out, finding(p, sw.Pos(), "exhaustive",
					fmt.Sprintf("switch over %s has non-constant cases; coverage cannot be proven — add a panicking default", label)))
				return true
			}
			out = append(out, finding(p, sw.Pos(), "exhaustive",
				fmt.Sprintf("switch over %s misses %s; add the cases or a panicking default", label, strings.Join(missing, ", "))))
			return true
		})
	}
	return out
}

// clausePanics reports whether a case clause body contains a call to
// the panic builtin (anywhere in the clause, so wrapped panics like
// panic(fmt.Sprintf(...)) count).
func clausePanics(p *Package, cc *ast.CaseClause) bool {
	for _, stmt := range cc.Body {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltin(p.Info, call, "panic") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
