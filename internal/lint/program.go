package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural core of noclint v2: a module-local
// view over every loaded package at once, with a function index keyed by
// (package path, receiver type name, function name) and static-call
// resolution over it. Rules that must reason across function boundaries
// — arena handles escaping their run — run as ProgramAnalyzers over
// this view instead of per-package Analyzers.
//
// The index is keyed by strings rather than types.Object identity
// because the loader type-checks each target package itself while its
// dependencies come from the source importer: the same function is a
// distinct *types.Func in the two worlds, but its key is identical.

// Program is the whole-module input of the interprocedural rules.
type Program struct {
	Packages []*Package
	Fset     *token.FileSet
	// Funcs indexes every function and method declaration with a body,
	// by funcKey.
	Funcs map[string]*FuncNode
}

// FuncNode is one declared function or method in the program.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// funcKeyOf builds the index key of fn: "pkgpath|recv|name". Interface
// methods key under the interface's type name, so they never collide
// with (and never resolve to) a concrete declaration — callers handle
// dynamic dispatch explicitly.
func funcKeyOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		} else if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			_ = iface // unnamed interface receiver: leave recv empty
		}
	}
	return fn.Pkg().Path() + "|" + recv + "|" + fn.Name()
}

// BuildProgram indexes the packages' function declarations. Multiple
// init functions share a key and shadow each other; nothing resolves
// calls to init, so the collision is harmless.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Packages: pkgs, Funcs: map[string]*FuncNode{}}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKeyOf(obj)
				if key == "" {
					continue
				}
				prog.Funcs[key] = &FuncNode{Key: key, Pkg: p, Decl: fd, Obj: obj}
			}
		}
	}
	return prog
}

// callee resolves a call in package p to the program function it
// statically invokes, or nil for dynamic, external and builtin calls.
func (prog *Program) callee(p *Package, call *ast.CallExpr) *FuncNode {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil
	}
	return prog.Funcs[funcKeyOf(fn)]
}

// ProgramAnalyzer is one whole-program invariant. Unlike per-package
// Analyzers, program rules scope themselves (by root shape and package
// path) because a single run covers every package at once.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Finding
}

// ProgramAnalyzers returns the interprocedural rule suite in a fixed
// order.
func ProgramAnalyzers() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{
		analyzeArenaEscape,
	}
}

// position converts a token.Pos through the program's shared file set.
func (prog *Program) position(pos token.Pos) token.Position {
	return prog.Fset.Position(pos)
}
