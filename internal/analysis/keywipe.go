package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// KeyWipe enforces key-material zeroization (paper §3.1: the adversary
// "can read and manipulate memory" on middlebox infrastructure, so
// secrets must not outlive their session). Any named struct type with a
// confidential byte-slice field — per-hop keys, master secrets, ticket
// keys — must declare a Wipe (or wipe) method, and that method must
// route every such field through a wipe helper (secmem.Wipe/WipeAll, a
// nested Wipe, or a range loop that clears the entries). Teardown paths
// calling those methods are pinned by conventional tests; this check
// guarantees the methods exist and stay complete as fields are added.
//
// Scope: slice and map fields (heap-referenced bytes that survive
// copies of the struct), confidential fixed-size byte arrays (the
// hsfast STEK generations, tls12.Config's ticket key — wiping clears
// the canonical copy; any struct a copy lands in is flagged on its own
// terms), and value fields of secret-bearing struct types. Pointer
// fields are ownership boundaries — wiping shared state from one
// owner's teardown would corrupt the others — and stay call-site
// discipline. Array fields are typically cleared through the
// secmem.Wipe(x.field[:]) idiom, which counts as clearing the field.
var KeyWipe = &Analyzer{
	Name: "keywipe",
	Doc:  "structs holding key material must declare a complete Wipe method",
	Run:  runKeyWipe,
}

// wipeHelperNames are the call targets that count as clearing a field.
var wipeHelperNames = map[string]bool{"Wipe": true, "wipe": true, "WipeAll": true}

func runKeyWipe(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				checkWipeType(pass, ts)
			}
		}
	}
}

func checkWipeType(pass *Pass, ts *ast.TypeSpec) {
	obj, ok := pass.Pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok || obj.IsAlias() {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fields := secretFields(st)
	if len(fields) == 0 {
		return
	}

	wipe := findWipeMethod(pass, named)
	if wipe == nil {
		pass.Reportf(ts.Name.Pos(), "type %s holds key material (field %s) but declares no Wipe method",
			ts.Name.Name, strings.Join(fields, ", "))
		return
	}
	cleared := clearedFields(wipe)
	for _, f := range fields {
		if !cleared[f] {
			pass.Reportf(wipe.Name.Pos(), "Wipe method of %s does not clear secret field %s", ts.Name.Name, f)
		}
	}
}

// secretFields lists the struct's fields that must be wiped:
// confidential-named []byte / [N]byte / map[...][]byte fields, plus
// value fields whose struct type itself carries secrets. Recursion is
// through value struct fields only, which Go guarantees are acyclic.
func secretFields(st *types.Struct) []string {
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t := f.Type()
		if isPublicKeyType(t) {
			continue
		}
		if confidentialName(f.Name()) && (isByteSlice(t) || isByteArray(t) || isByteSliceMap(t)) {
			out = append(out, f.Name())
			continue
		}
		if inner, ok := t.Underlying().(*types.Struct); ok {
			if _, isNamed := t.(*types.Named); isNamed && len(secretFields(inner)) > 0 {
				out = append(out, f.Name())
			}
		}
	}
	return out
}

// findWipeMethod locates the AST of the type's Wipe/wipe method.
func findWipeMethod(pass *Pass, named *types.Named) *ast.FuncDecl {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if fd.Name.Name != "Wipe" && fd.Name.Name != "wipe" {
				continue
			}
			recvT := pass.Pkg.Info.Types[fd.Recv.List[0].Type].Type
			for recvT != nil {
				if ptr, ok := recvT.(*types.Pointer); ok {
					recvT = ptr.Elem()
					continue
				}
				break
			}
			if recvT == named || types.Identical(recvT, named) {
				return fd
			}
		}
	}
	return nil
}

// clearedFields scans a Wipe method body for the receiver fields it
// clears: arguments to wipe helpers, nested x.Field.Wipe() calls, and
// fields iterated by a range statement (the map-clearing idiom).
func clearedFields(fd *ast.FuncDecl) map[string]bool {
	cleared := make(map[string]bool)
	recv := receiverName(fd)
	if recv == "" || fd.Body == nil {
		return cleared
	}
	mark := func(e ast.Expr) {
		// Unwrap the array-wiping idiom secmem.Wipe(x.field[:]) down
		// to the field selector before matching.
		e = ast.Unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
				cleared[sel.Sel.Name] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if wipeHelperNames[calleeName(n)] {
				for _, arg := range n.Args {
					mark(arg)
				}
				// x.Field.Wipe(): the field is the method receiver.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					mark(sel.X)
				}
			}
		case *ast.RangeStmt:
			mark(n.X)
		}
		return true
	})
	return cleared
}

// receiverName returns the name of a method's receiver variable.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
