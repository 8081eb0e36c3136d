package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzeSeedIdentity enforces the seed-derivation discipline behind
// sim.Map's determinism guarantee: per-run seeds are minted by
// sim.DeriveSeed (FNV-1a over a run-identity string) or carried in a
// sim.RunIdentity, never produced by arithmetic on the base seed.
// seed+i looks harmless but collides across sweeps (run 3 of seed 40
// equals run 1 of seed 42), correlates adjacent runs for LCG-family
// generators, and silently changes meaning when a sweep is reordered.
//
// Two shapes are flagged under the deterministic roots:
//
//   - integer arithmetic whose operand is seed-named (seed, baseSeed,
//     cfg.Seed, ...), outside sim.DeriveSeed/Identify themselves, and
//   - assignments to a sim.Config's Seed field whose value is not a
//     DeriveSeed result, a RunIdentity's Seed, or a plain seed-valued
//     identifier threading the base seed through.
var analyzeSeedIdentity = &Analyzer{
	Name: "seedident",
	Applies: func(path string) bool {
		return underAny(path, deterministicRoots)
	},
	Run: runSeedIdentity,
}

func runSeedIdentity(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isBlessedDeriver(p, fd) {
				continue // DeriveSeed/Identify are where mixing is allowed to live
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.BinaryExpr:
					if !arithmeticOp(x.Op) || !isIntegerExpr(p.Info, x) {
						return true
					}
					for _, side := range []ast.Expr{x.X, x.Y} {
						if name, ok := seedishName(side); ok {
							out = append(out, finding(p, x.Pos(), "seedident",
								fmt.Sprintf("arithmetic on %s collides across sweeps and correlates runs; derive per-run seeds with sim.DeriveSeed", name)))
							return true
						}
					}
				case *ast.AssignStmt:
					if len(x.Lhs) != len(x.Rhs) {
						return true
					}
					for i, lhs := range x.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Seed" {
							continue
						}
						if !typeIs(p.Info.Types[sel.X].Type, "nocsim/internal/sim", "Config") {
							continue
						}
						if legalSeedSource(p, x.Rhs[i]) {
							continue
						}
						out = append(out, finding(p, lhs.Pos(), "seedident",
							fmt.Sprintf("%s set from %s; per-run seeds must come from sim.DeriveSeed or a RunIdentity",
								exprString(p.Fset, lhs), exprString(p.Fset, x.Rhs[i]))))
					}
				}
				return true
			})
		}
	}
	return out
}

// isBlessedDeriver reports whether fd is sim.DeriveSeed or sim.Identify,
// the two functions allowed to manufacture seeds.
func isBlessedDeriver(p *Package, fd *ast.FuncDecl) bool {
	if p.Pkg.Path() != "nocsim/internal/sim" || fd.Recv != nil {
		return false
	}
	return fd.Name.Name == "DeriveSeed" || fd.Name.Name == "Identify"
}

// arithmeticOp reports whether op combines integers into a new value
// (comparisons and logical operators are not seed manufacturing).
func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}

// isIntegerExpr reports whether the expression has integer type.
func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// seedishName reports whether e is an identifier or field selector whose
// name marks it as a seed (seed, baseSeed, cfg.Seed, ...).
func seedishName(e ast.Expr) (string, bool) {
	var name string
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return "", false
	}
	if strings.EqualFold(name, "seed") || strings.HasSuffix(name, "Seed") {
		return name, true
	}
	return "", false
}

// legalSeedSource recognizes the value shapes allowed on the right of a
// Config.Seed assignment.
func legalSeedSource(p *Package, rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		return true // threading a base seed through verbatim
	case *ast.CallExpr:
		return funcIs(calleeFunc(p.Info, x), "nocsim/internal/sim", "DeriveSeed")
	case *ast.SelectorExpr:
		// id.Seed where id is a sim.RunIdentity
		return x.Sel.Name == "Seed" &&
			typeIs(p.Info.Types[x.X].Type, "nocsim/internal/sim", "RunIdentity")
	case *ast.BinaryExpr:
		return true // the arithmetic rule already reports this expression
	}
	return false
}
