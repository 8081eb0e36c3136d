package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Shared resolution helpers for the analyzers. Everything here matches
// by package path + name rather than by object identity, so it is
// robust against the loader and the source importer holding distinct
// *types.Package instances for the same package.

// finding builds a Finding at pos.
func finding(p *Package, pos token.Pos, rule, msg string) Finding {
	return Finding{Pos: p.Fset.Position(pos), Rule: rule, Msg: msg}
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, type conversions, function-typed variables and dynamic
// calls through non-selector expressions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = base.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcIs reports whether fn is the package-level function pkgPath.name.
func funcIs(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// namedType unwraps pointers and returns the *types.Named behind t, or
// nil when t is not (a pointer to) a named type.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Name() == name && obj.Pkg().Path() == pkgPath
}

// exprString renders a (small) expression for use in messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "<expr>"
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// typeLabel renders a named type as pkg.Name using the short package
// name, for messages.
func typeLabel(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// containsObject reports whether expr mentions an identifier resolving
// to obj.
func containsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// leftmostIdent peels selector/index/paren layers off an lvalue and
// returns its base identifier, plus whether any peeled layer implies a
// reference traversal that could reach shared state (explicit pointer
// deref). Returns nil for lvalues with non-ident bases (function calls,
// etc.), which callers treat conservatively.
func leftmostIdent(e ast.Expr) (*ast.Ident, bool) {
	deref := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, deref
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			deref = true
			e = x.X
		default:
			return nil, deref
		}
	}
}

// isReferenceType reports whether writes through a value of type t can
// reach memory shared with the caller: pointers, slices, maps, chans,
// interfaces and functions.
func isReferenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

// hasWriterParam reports whether the function type declares an
// io.Writer parameter (the signature of an exporter).
func hasWriterParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if typeIs(info.Types[field.Type].Type, "io", "Writer") {
			return true
		}
	}
	return false
}

// exporterNamePrefixes mark functions whose job is serializing state.
var exporterNamePrefixes = []string{"Write", "Format", "Export", "Render", "Dump", "Marshal", "Report"}

// hasExporterName reports whether name starts like a serializer.
func hasExporterName(name string) bool {
	for _, p := range exporterNamePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
