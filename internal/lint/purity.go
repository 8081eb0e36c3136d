package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzeRoutePurity enforces the routing contract: a Decide method, its
// list form Route (and every same-package function they reach) is a
// decision function — it may read the router's View and draw from the
// decision's own RNG, but it must not mutate reachable state or send on
// channels. Decide returns its Decision by value, so filling a local one
// is legal and a write through the context it was handed is not. This is
// the static twin of the dynamic replay-purity property test: the paper's
// paired-seed comparisons are only meaningful if routing cannot perturb
// the fabric it is inspecting.
//
// Concretely, in internal/routing, starting from every method named
// Decide or Route and walking same-package static calls:
//
//   - no assignment whose target can alias caller-visible memory
//     (fields through pointers/receivers, slice/map elements, derefs);
//     writes to function-local value variables stay legal,
//   - no channel sends or close.
var analyzeRoutePurity = &Analyzer{
	Name: "routepurity",
	Applies: func(path string) bool {
		const root = "nocsim/internal/routing"
		return path == root || len(path) > len(root) && path[:len(root)+1] == root+"/"
	},
	Run: runRoutePurity,
}

func runRoutePurity(p *Package) []Finding {
	// Index the package's function declarations by their object so the
	// walk can follow static calls.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	var out []Finding
	visited := map[*types.Func]bool{}

	var visit func(obj *types.Func, fd *ast.FuncDecl, root string)
	visit = func(obj *types.Func, fd *ast.FuncDecl, root string) {
		if visited[obj] {
			return
		}
		visited[obj] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					out = appendImpureWrite(p, out, fd, lhs, root)
				}
			case *ast.IncDecStmt:
				out = appendImpureWrite(p, out, fd, x.X, root)
			case *ast.SendStmt:
				out = append(out, finding(p, x.Pos(), "routepurity",
					fmt.Sprintf("channel send inside %s: routing decisions must not signal other goroutines", root)))
			case *ast.CallExpr:
				if isBuiltin(p.Info, x, "close") {
					out = append(out, finding(p, x.Pos(), "routepurity",
						fmt.Sprintf("close inside %s: routing decisions must not manage channels", root)))
					return true
				}
				fn := calleeFunc(p.Info, x)
				if fn == nil {
					return true
				}
				// Follow same-package static calls.
				if next, ok := decls[fn]; ok {
					visit(fn, next, root)
				}
			}
			return true
		})
	}

	for obj, fd := range decls {
		if (fd.Name.Name == "Decide" || fd.Name.Name == "Route") && fd.Recv != nil {
			visit(obj, fd, routeLabel(p, fd))
		}
	}
	return out
}

// routeLabel names a root for messages, e.g. "(*Footprint).Decide".
func routeLabel(p *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	if n := namedType(p.Info.Types[fd.Recv.List[0].Type].Type); n != nil {
		return "(*" + n.Obj().Name() + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// appendImpureWrite flags an assignment target that can alias memory
// outside the function. A write is pure only when its base identifier
// is a non-reference local (declared inside the function, value type)
// and no pointer was dereferenced on the way.
func appendImpureWrite(p *Package, out []Finding, fd *ast.FuncDecl, lhs ast.Expr, root string) []Finding {
	base, deref := leftmostIdent(lhs)
	if base == nil {
		return append(out, finding(p, lhs.Pos(), "routepurity",
			fmt.Sprintf("write through %s inside %s", exprString(p.Fset, lhs), root)))
	}
	if base.Name == "_" {
		return out
	}
	obj := p.Info.ObjectOf(base)
	v, ok := obj.(*types.Var)
	if !ok {
		// Package-level func/const cannot be assigned; a nil object is a
		// fresh := definition, which is local by construction.
		if obj == nil && !deref {
			return out
		}
		return append(out, finding(p, lhs.Pos(), "routepurity",
			fmt.Sprintf("write to %s inside %s", exprString(p.Fset, lhs), root)))
	}
	local := v.Pos() >= fd.Pos() && v.Pos() <= fd.End()
	switch {
	case !local:
		return append(out, finding(p, lhs.Pos(), "routepurity",
			fmt.Sprintf("write to package state %s inside %s", exprString(p.Fset, lhs), root)))
	case deref, isReferenceType(v.Type()) && lhs != ast.Expr(base):
		// Writing *through* a local pointer/slice/map reaches shared
		// memory; rebinding the local itself (base = ...) is fine.
		return append(out, finding(p, lhs.Pos(), "routepurity",
			fmt.Sprintf("write through reference %s inside %s: may mutate router state", exprString(p.Fset, lhs), root)))
	}
	return out
}
