package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzeDeterminism enforces the engine's first invariant: simulation
// results are a pure function of (Config, seed). Under the
// deterministic roots the rule forbids
//
//   - wall-clock reads (time.Now / time.Since / time.Until),
//   - the global math/rand source (rand.Intn, rand.Shuffle, …), whose
//     hidden shared state couples concurrent runs and breaks the
//     "equal seeds ⇒ identical results at any -jobs" guarantee, and
//   - Intn draws on a generator stored in a package-level variable.
//     Routing decisions draw Intn from the run's *rand.Rand
//     (routing.Context.Rand), so a `var rng = rand.New(...)` shared
//     across runs is the same hidden coupling as the global source with
//     an explicit seed pasted on; generators must be owned per run and
//     reach their draw sites as parameters, fields or locals.
//
// Explicitly seeded generators (rand.New(rand.NewSource(seed))) and
// *rand.Rand method calls on run-owned values stay legal. Wall-clock
// self-metrics that never feed results (cycles/s reporting) flow through
// the single seam prof.Now in internal/prof, the one function the rule
// exempts by name (isWallClockSeam).
var analyzeDeterminism = &Analyzer{
	Name: "determinism",
	Applies: func(path string) bool {
		return underAny(path, deterministicRoots)
	},
	Run: runDeterminism,
}

// mathRandConstructors are the package-level math/rand functions that
// build explicitly seeded state rather than touching the global source.
var mathRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDeterminism(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && isWallClockSeam(p, fd) {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Methods (e.g. on *rand.Rand) are fine on run-owned
				// generators — but an Intn-shaped draw whose receiver
				// chain is rooted in a package-level variable is shared
				// hidden state, seeded or not.
				if isIntnShaped(fn, sig) {
					if v := packageLevelRecv(p.Info, call); v != nil {
						out = append(out, finding(p, call.Pos(), "determinism",
							fmt.Sprintf("%s.Intn draws from package-level generator state; generators must be owned per run (parameter, field or local)", v.Name())))
					}
				}
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					out = append(out, finding(p, call.Pos(), "determinism",
						"time."+fn.Name()+" reads the wall clock in a deterministic simulation path"))
				case "NewTimer", "NewTicker", "Tick", "After", "AfterFunc", "Sleep":
					out = append(out, finding(p, call.Pos(), "determinism",
						"time."+fn.Name()+" schedules on the wall clock; simulation time advances only through the cycle loop"))
				}
			case "math/rand", "math/rand/v2":
				if !mathRandConstructors[fn.Name()] {
					out = append(out, finding(p, call.Pos(), "determinism",
						"rand."+fn.Name()+" draws from the global math/rand source; use an explicitly seeded *rand.Rand"))
				} else if fn.Name() == "New" && len(call.Args) == 0 {
					out = append(out, finding(p, call.Pos(), "determinism",
						"rand.New without an explicit source is auto-seeded and nondeterministic"))
				}
			}
			return true
		})
	}
	return out
}

// isWallClockSeam reports whether fd is prof.Now, the one function inside
// the deterministic roots allowed to read the wall clock.
func isWallClockSeam(p *Package, fd *ast.FuncDecl) bool {
	return p.Pkg.Path() == "nocsim/internal/prof" && fd.Recv == nil && fd.Name.Name == "Now"
}

// isIntnShaped reports whether a method has the tie-break draw shape:
// named Intn, one int parameter, one int result. Matching the shape
// rather than a concrete type catches both *rand.Rand and any wrapper
// or interface a package puts in front of it.
func isIntnShaped(fn *types.Func, sig *types.Signature) bool {
	if fn.Name() != "Intn" || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return isInt(sig.Params().At(0).Type()) && isInt(sig.Results().At(0).Type())
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// packageLevelRecv returns the package-level variable at the root of a
// method call's receiver chain (sharedRNG.Intn, state.rng.Intn), or nil
// when the receiver is a parameter, field access through a local, or
// any other run-scoped value.
func packageLevelRecv(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	base, _ := leftmostIdent(sel.X)
	if base == nil {
		return nil
	}
	v, ok := info.ObjectOf(base).(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}
