package analysis

import (
	"go/ast"
	"go/types"
)

// EnclaveBoundary enforces the attested-boundary property the paper's
// security argument rests on (§3.3/§4, and Knauth et al.'s
// attestation-TLS integration): host-side code reaches enclave secrets
// only through the ecall API, and the secrets never land in
// host-visible memory. Two rules:
//
//  1. The memory-handle parameter of an Enclave.Enter callback must not
//     escape the callback: assigning the parameter (or a slice of it, an
//     append of it, or a copy of its bytes) to anything declared outside
//     the callback moves the secret into host memory.
//
//  2. DumpHostMemory models the MIP adversary's memory read; only
//     the adversary harness (internal/adversary) and tests may call it.
var EnclaveBoundary = &Analyzer{
	Name: "enclaveboundary",
	Doc:  "enclave secrets stay inside ecall callbacks; host memory dumps are adversary-only",
	Run:  runEnclaveBoundary,
}

// enclaveCallbackMethods are the ecall entry points whose callback
// parameters carry enclave-resident secrets.
var enclaveCallbackMethods = map[string]bool{"Enter": true}

// dumpAllowedPackages may call DumpHostMemory: the attack harness that
// exists to model the adversary.
var dumpAllowedPackages = map[string]bool{"repro/internal/adversary": true}

func runEnclaveBoundary(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "DumpHostMemory":
				if !dumpAllowedPackages[pass.Pkg.Path] {
					pass.Reportf(call.Pos(), "DumpHostMemory models the MIP adversary's memory read (§3.1); only the adversary harness and tests may call it")
				}
			case enclaveCallbackMethods[sel.Sel.Name]:
				checkCallbackLeaks(pass, sel.Sel.Name, call)
			}
			return true
		})
	}
}

// checkCallbackLeaks inspects the func-literal argument of an ecall for
// parameter escapes.
func checkCallbackLeaks(pass *Pass, method string, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok || lit.Type.Params == nil {
		return
	}
	params := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Pkg.Info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}

	declaredOutside := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return true // selectors on captured state, indexed maps, …
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			obj = pass.Pkg.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if param, ok := aliasesParam(pass.Pkg.Info, params, rhs); ok && declaredOutside(n.Lhs[i]) {
					pass.Reportf(n.Pos(), "secret parameter %q escapes the %s callback into host-visible memory", param, method)
				}
			}
		case *ast.SendStmt:
			if param, ok := aliasesParam(pass.Pkg.Info, params, n.Value); ok && declaredOutside(n.Chan) {
				pass.Reportf(n.Pos(), "secret parameter %q escapes the %s callback over a host-side channel", param, method)
			}
		case *ast.CallExpr:
			if calleeName(n) == "copy" && len(n.Args) == 2 {
				if param, ok := aliasesParam(pass.Pkg.Info, params, n.Args[1]); ok && declaredOutside(n.Args[0]) {
					pass.Reportf(n.Pos(), "secret parameter %q copied out of the %s callback into host-visible memory", param, method)
				}
			}
		}
		return true
	})
}

// aliasesParam reports whether an expression aliases or reproduces the
// bytes of a callback parameter: the parameter itself, a slice or
// index of it, or an append dragging it along.
func aliasesParam(info *types.Info, params map[types.Object]bool, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if calleeName(call) == "append" {
			for _, arg := range call.Args {
				if name, ok := aliasesParam(info, params, arg); ok {
					return name, true
				}
			}
		}
		return "", false
	}
	id := rootIdent(e)
	if id == nil {
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj != nil && params[obj] {
		return id.Name, true
	}
	return "", false
}
