package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces all-or-nothing atomicity: a variable or struct
// field that is accessed through sync/atomic anywhere in the module
// must be accessed atomically everywhere. A single plain read racing an
// atomic.AddUint64 is a data race the race detector only catches when a
// test happens to interleave it; the analyzer catches it structurally.
// This is the discipline behind the session host's lock-free metrics
// counters and the cipher-state swap — the typed sync/atomic.Uint64
// wrappers make violations unrepresentable, and this analyzer holds the
// remaining &field-style uses to the same bar.
//
// The index of atomically-accessed variables is module-wide (built by
// the engine from every package in the same load pass), so a field
// updated atomically in one package and read plainly in another is
// still caught.
var AtomicField = &Analyzer{
	Name:        "atomicfield",
	Doc:         "a field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	NeedsEngine: true,
	Run:         runAtomicField,
}

func runAtomicField(pass *Pass) {
	atomics := pass.Engine.atomicVars
	if len(atomics) == 0 {
		return
	}
	for _, file := range pass.Pkg.Files {
		walkWithStack(file, func(n ast.Node, stack []ast.Node) {
			var obj types.Object
			switch n := n.(type) {
			case *ast.SelectorExpr:
				s, ok := pass.Pkg.Info.Selections[n]
				if !ok || s.Kind() != types.FieldVal {
					return
				}
				obj = s.Obj()
			case *ast.Ident:
				// Package-level variables used bare.
				u := pass.Pkg.Info.Uses[n]
				if u == nil {
					return
				}
				if v, ok := u.(*types.Var); !ok || v.IsField() {
					return
				}
				obj = u
			default:
				return
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			first, tracked := atomics[v]
			if !tracked {
				return
			}
			// Selector chains visit both x.f (SelectorExpr) and f
			// (Ident); count the access once, at the selector.
			if _, isIdent := n.(*ast.Ident); isIdent {
				if len(stack) > 0 {
					if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == n {
						return
					}
				}
			}
			if withinAtomicCall(pass.Pkg.Info, stack) {
				return
			}
			pass.Reportf(n.Pos(), "non-atomic access to %q, which is accessed via sync/atomic elsewhere (e.g. %s); every access must use sync/atomic",
				v.Name(), shortPos(pass.Pkg.Fset, first))
		})
	}
}

// withinAtomicCall reports whether the access is an operand of a
// sync/atomic call (the atomic access itself).
func withinAtomicCall(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		if call, ok := n.(*ast.CallExpr); ok && calleePkg(info, call) == "sync/atomic" {
			return true
		}
	}
	return false
}
