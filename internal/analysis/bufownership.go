package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BufOwnership enforces the pooled record-buffer discipline of
// DESIGN.md §6: a buffer from tls12.GetRecordBuf must either be
// returned with PutRecordBuf on every path (a deferred Put counts) or
// handed off to a new owner (returned, stored, or passed on), and once
// Put it must never be touched again — the pool will hand it to a
// concurrent session. The check is per-function and flow-insensitive:
// events are ordered by source position, which matches the
// get-use-put / get-defer-put shapes the data plane uses.
//
// Buffers that live in struct fields (the tls12 record layer's
// readBuf/writeBuf) outlive any single function, so the per-function
// check cannot see their Put. For those the analyzer applies a
// package-level rule instead: every field ever assigned from
// GetRecordBuf must be released by a PutRecordBuf(owner.field)
// somewhere in the same package — the single-owner lifetime is then
// Get-on-init / Put-on-Close, with the release path's reachability
// left to the close-semantics tests.
var BufOwnership = &Analyzer{
	Name: "bufownership",
	Doc:  "pooled record buffers: pair every Get with a Put, never touch a buffer after Put",
	Run:  runBufOwnership,
}

const (
	getBufName = "GetRecordBuf"
	putBufName = "PutRecordBuf"
)

// bufEvent is one position-ordered observation about a tracked buffer
// variable inside a function.
type bufEvent struct {
	pos  token.Pos
	kind bufEventKind
}

type bufEventKind int

const (
	evGet     bufEventKind = iota // x := GetRecordBuf()
	evPut                         // PutRecordBuf(x)
	evDefPut                      // defer PutRecordBuf(x)
	evUse                         // any other read of x
	evHandoff                     // x escapes: returned, stored, or passed to a callee
	evKill                        // x reassigned from something else: tracking ends
)

func runBufOwnership(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBufOwners(pass, n.Body)
				}
				return false // FuncLits inside are walked by checkBufOwners
			}
			return true
		})
	}
	checkFieldOwners(pass)
}

// checkFieldOwners is the package-level half of the discipline: a
// struct field assigned from GetRecordBuf holds a pooled buffer whose
// lifetime spans functions, so its release cannot be checked
// per-function — instead the package must contain a matching
// PutRecordBuf(owner.field) for the same field object. Three get
// shapes feed the rule: plain field assignment (owner.field = Get),
// indexed-field assignment (owner.field[i] = Get — a per-slot buffer
// array), and composite-literal initialization (&T{field: Get()} — the
// pipeline's slot-allocation handoff, DESIGN.md §14). A release
// through any of those shapes pairs with any get of the same field.
func checkFieldOwners(pass *Pass) {
	info := pass.Pkg.Info
	fieldObj := func(e ast.Expr) types.Object {
		e = ast.Unparen(e)
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		return info.Uses[sel.Sel]
	}
	gets := make(map[types.Object]token.Pos)
	puts := make(map[types.Object]bool)
	noteGet := func(obj types.Object, pos token.Pos) {
		if obj != nil {
			if _, seen := gets[obj]; !seen {
				gets[obj] = pos
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
					if !ok || calleeName(call) != getBufName {
						continue
					}
					noteGet(fieldObj(lhs), n.Pos())
				}
			case *ast.CompositeLit:
				// T{field: GetRecordBuf()}: the fresh buffer is owned by
				// the new value's field from birth.
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					call, ok := ast.Unparen(kv.Value).(*ast.CallExpr)
					if !ok || calleeName(call) != getBufName {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						noteGet(info.Uses[key], kv.Pos())
					}
				}
			case *ast.CallExpr:
				if calleeName(n) == putBufName && len(n.Args) == 1 {
					if obj := fieldObj(n.Args[0]); obj != nil {
						puts[obj] = true
					}
				}
			}
			return true
		})
	}
	for obj, pos := range gets {
		if !puts[obj] {
			pass.Reportf(pos, "field %s holds a buffer from GetRecordBuf but the package never releases it with PutRecordBuf", obj.Name())
		}
	}
}

// checkBufOwners analyzes one function body (including nested
// literals: a buffer obtained in a closure follows the same rules
// within that closure's text).
func checkBufOwners(pass *Pass, body *ast.BlockStmt) {
	events := make(map[types.Object][]bufEvent)
	info := pass.Pkg.Info

	record := func(obj types.Object, pos token.Pos, kind bufEventKind) {
		if obj != nil {
			events[obj] = append(events[obj], bufEvent{pos: pos, kind: kind})
		}
	}
	objOf := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		if obj, ok := info.Uses[id]; ok {
			return obj
		}
		return info.Defs[id]
	}

	walkWithStack(body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			classifyBufAssign(n, record, objOf)
		case *ast.CallExpr:
			if calleeName(n) == putBufName && len(n.Args) == 1 {
				kind := evPut
				if len(stack) > 0 {
					if _, ok := stack[len(stack)-1].(*ast.DeferStmt); ok {
						kind = evDefPut
					}
				}
				record(objOf(n.Args[0]), n.Pos(), kind)
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return
			}
			tracked, handoff := classifyBufUse(n, stack)
			if !tracked {
				return
			}
			kind := evUse
			if handoff {
				kind = evHandoff
			}
			record(obj, n.Pos(), kind)
		}
	})

	for obj, evs := range events {
		if !hasGet(evs) {
			continue
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		reportBufLifetime(pass, obj, evs)
	}
}

// classifyBufAssign records Get events (x := GetRecordBuf()) and kill
// events (x reassigned away from the pool, other than the
// x = append(x, ...) growth idiom).
func classifyBufAssign(n *ast.AssignStmt, record func(types.Object, token.Pos, bufEventKind), objOf func(ast.Expr) types.Object) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := objOf(id)
		if obj == nil {
			continue
		}
		switch rhs := ast.Unparen(n.Rhs[i]).(type) {
		case *ast.CallExpr:
			switch calleeName(rhs) {
			case getBufName:
				record(obj, n.Pos(), evGet)
				continue
			case "append":
				if len(rhs.Args) > 0 && objOf(rhs.Args[0]) == obj {
					continue // x = append(x, ...): same buffer, still tracked
				}
			}
		case *ast.SliceExpr:
			if objOf(rhs.X) == obj {
				continue // x = x[:n]: same buffer, still tracked
			}
		}
		record(obj, n.Pos(), evKill)
	}
}

// classifyBufUse decides how one identifier occurrence counts: not at
// all (assignment LHS and the pool calls are handled elsewhere; reads
// inside measuring builtins are plain uses), a plain use, or a handoff
// that transfers ownership (returned, passed to a callee, or stored
// under another name).
func classifyBufUse(id *ast.Ident, stack []ast.Node) (tracked, handoff bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ReturnStmt:
			return true, true
		case *ast.CallExpr:
			switch calleeName(parent) {
			case putBufName, getBufName:
				return false, false
			case "len", "cap", "append", "copy":
				return true, false
			}
			return true, true
		case *ast.AssignStmt:
			if id.Pos() <= parent.TokPos {
				return false, false // LHS: classifyBufAssign's business
			}
			return true, true // stored under another name or into a field
		case *ast.BlockStmt, *ast.FuncLit:
			return true, false
		}
	}
	return true, false
}

func hasGet(evs []bufEvent) bool {
	for _, e := range evs {
		if e.kind == evGet {
			return true
		}
	}
	return false
}

// reportBufLifetime checks one variable's ordered event stream.
func reportBufLifetime(pass *Pass, obj types.Object, evs []bufEvent) {
	// Split the stream into lifetimes at each Get/Kill boundary.
	start := -1
	for i, e := range evs {
		switch e.kind {
		case evGet:
			if start >= 0 {
				checkLifetime(pass, obj, evs[start:i])
			}
			start = i
		case evKill:
			if start >= 0 {
				checkLifetime(pass, obj, evs[start:i])
			}
			start = -1
		}
	}
	if start >= 0 {
		checkLifetime(pass, obj, evs[start:])
	}
}

// checkLifetime enforces the rules over one Get-to-end event window.
func checkLifetime(pass *Pass, obj types.Object, evs []bufEvent) {
	get := evs[0]
	putSeen := token.NoPos
	paired := false
	for _, e := range evs[1:] {
		switch e.kind {
		case evPut:
			if putSeen.IsValid() {
				pass.Reportf(e.pos, "pooled buffer %s returned to the pool twice", obj.Name())
			}
			putSeen = e.pos
			paired = true
		case evDefPut:
			paired = true
		case evUse, evHandoff:
			if putSeen.IsValid() {
				pass.Reportf(e.pos, "use of pooled buffer %s after PutRecordBuf", obj.Name())
			}
			if e.kind == evHandoff && !putSeen.IsValid() {
				paired = true // ownership moved to callee/caller
			}
		}
	}
	if !paired {
		pass.Reportf(get.pos, "buffer %s from GetRecordBuf is neither returned with PutRecordBuf nor handed off", obj.Name())
	}
}
