package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// timingSensitiveName reports whether an identifier denotes a value
// whose comparison leaks through timing: keys, MACs, secrets, Finished
// verify_data. Public-key material is excluded — its comparison is not
// an oracle.
func timingSensitiveName(name string) bool {
	n := strings.ToLower(name)
	if strings.Contains(n, "pub") {
		return false
	}
	return strings.Contains(n, "secret") ||
		strings.Contains(n, "master") ||
		strings.Contains(n, "verifydata") ||
		strings.HasSuffix(n, "key") ||
		strings.HasSuffix(n, "keys") ||
		strings.HasSuffix(n, "mac")
}

// confidentialName reports whether a struct-field identifier denotes
// key material that must not outlive its owner: keys, secrets, a key
// block cached beside its master secret, and private halves of signing
// keypairs (the delegation signing key, the attestation authority key),
// but not wire-visible artifacts like MACs or verify_data.
func confidentialName(name string) bool {
	n := strings.ToLower(name)
	if strings.Contains(n, "pub") {
		return false
	}
	return strings.Contains(n, "secret") ||
		strings.Contains(n, "master") ||
		strings.Contains(n, "priv") ||
		strings.Contains(n, "keyblock") ||
		strings.HasSuffix(n, "key") ||
		strings.HasSuffix(n, "keys")
}

// exprName extracts the best-effort identifier a value expression is
// known by: the variable, field, or producing function's name.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	case *ast.SliceExpr:
		return exprName(e.X)
	case *ast.CallExpr:
		return exprName(e.Fun)
	case *ast.ParenExpr:
		return exprName(e.X)
	case *ast.StarExpr:
		return exprName(e.X)
	case *ast.UnaryExpr:
		return exprName(e.X)
	}
	return ""
}

// rootIdent returns the identifier at the base of a chain of
// selector/index/slice/paren expressions, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeName returns the bare name of a call's target function or
// method ("Equal" for bytes.Equal, "Wipe" for km.Wipe).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleePkg resolves the package an imported call target comes from
// ("bytes" for bytes.Equal), using type info when available and the
// qualifier's spelling otherwise. Empty for method calls and locals.
func calleePkg(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a variable: method call, not a package function
	}
	return id.Name // no type info: trust the qualifier's spelling
}

// isPublicKeyType reports whether a type is a named public-key type
// (ed25519.PublicKey and friends): public material is exempt from the
// secrecy invariants even when a field or variable name says "key".
func isPublicKeyType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && strings.Contains(n.Obj().Name(), "Public")
}

// isByteSlice reports whether a type's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteArray reports whether a type's underlying type is a
// fixed-size byte array ([32]byte and friends).
func isByteArray(t types.Type) bool {
	if t == nil {
		return false
	}
	a, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := a.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteSliceMap reports whether a type's underlying type is a map
// with []byte values.
func isByteSliceMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	return ok && isByteSlice(m.Elem())
}

// isComparableSecretCarrier reports whether a type can carry secret
// bytes through a == comparison: strings and byte arrays.
func isComparableSecretCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Array:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return false
}

// walkWithStack traverses the AST under n, invoking f with each node
// and the stack of its ancestors (outermost first, excluding n itself
// at the time of its own visit).
func walkWithStack(n ast.Node, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		f(n, stack)
		stack = append(stack, n)
		return true
	})
}
