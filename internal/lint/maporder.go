package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzeMapOrder enforces ordered iteration where order can leak into
// an artifact: Go randomizes map range order per run, so a map walk in
// a function that builds a Result, serializes state (CSV/JSON/metrics
// exporters and Format methods), or derives seeds produces
// run-to-run-different bytes — exactly the class of nondeterminism the
// golden tests can only catch when the affected path executes.
//
// A map range inside a sensitive function is legal only as the
// collect-then-sort idiom: the loop body does nothing but append keys
// or values to a slice that is subsequently passed to a sort call in
// the same function. Anything else needs sorted keys up front.
var analyzeMapOrder = &Analyzer{
	Name:    "maporder",
	Applies: inModule,
	Run:     runMapOrder,
}

func runMapOrder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			why := sensitivityOf(p, fd)
			if why == "" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := p.Info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if isCollectAndSort(p, fd, rs) {
					return true
				}
				out = append(out, finding(p, rs.Pos(), "maporder",
					fmt.Sprintf("map iteration order leaks into %s; iterate sorted keys or collect-and-sort", why)))
				return true
			})
		}
	}
	return out
}

// sensitivityOf classifies fd: a non-empty return value names why its
// iteration order is observable.
func sensitivityOf(p *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if hasExporterName(name) {
		return "the serialized output of " + name
	}
	if hasWriterParam(p.Info, fd.Type) {
		return "the stream written by " + name
	}
	why := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CompositeLit:
			if typeIs(p.Info.Types[x].Type, "nocsim/internal/sim", "Result") {
				why = "a sim.Result built by " + name
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if typeIs(p.Info.Types[sel.X].Type, "nocsim/internal/sim", "Result") {
						why = "a sim.Result written by " + name
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, x)
			if funcIs(fn, "nocsim/internal/sim", "DeriveSeed") || funcIs(fn, "nocsim/internal/sim", "Identify") {
				why = "seed derivation in " + name
			}
		}
		return true
	})
	return why
}

// isCollectAndSort recognizes the one blessed shape of map iteration in
// a sensitive function:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// The loop body may branch but must only append to slices; at least one
// appended slice must reach a sort/slices sort call later in the
// function.
func isCollectAndSort(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	targets := appendOnlyTargets(p, rs.Body.List, nil)
	if targets == nil || len(targets) == 0 {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(p.Info, call) {
			return true
		}
		for _, obj := range targets {
			for _, arg := range call.Args {
				if containsObject(p.Info, arg, obj) {
					sorted = true
				}
			}
		}
		return !sorted
	})
	return sorted
}

// appendOnlyTargets walks loop-body statements and returns the objects
// of the slices they append to, or nil if any statement is not an
// append assignment (or an if/block wrapping only such assignments).
func appendOnlyTargets(p *Package, stmts []ast.Stmt, acc []types.Object) []types.Object {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			obj := appendTarget(p, s)
			if obj == nil {
				return nil
			}
			acc = append(acc, obj)
		case *ast.IfStmt:
			if s.Init != nil {
				return nil
			}
			acc = appendOnlyTargets(p, s.Body.List, acc)
			if acc == nil {
				return nil
			}
			if s.Else != nil {
				block, ok := s.Else.(*ast.BlockStmt)
				if !ok {
					return nil
				}
				acc = appendOnlyTargets(p, block.List, acc)
				if acc == nil {
					return nil
				}
			}
		case *ast.BlockStmt:
			acc = appendOnlyTargets(p, s.List, acc)
			if acc == nil {
				return nil
			}
		default:
			return nil
		}
	}
	if acc == nil {
		acc = []types.Object{}
	}
	return acc
}

// appendTarget matches `x = append(x, ...)` and returns x's object.
func appendTarget(p *Package, s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(p.Info, call, "append") || len(call.Args) < 2 {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || p.Info.ObjectOf(first) != p.Info.ObjectOf(lhs) {
		return nil
	}
	return p.Info.ObjectOf(lhs)
}

// isSortCall reports whether call invokes a sort/slices ordering
// function.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
