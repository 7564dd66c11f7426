package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the second half of the summary computation: after taint
// propagation converges (summary.go), scan walks the function once more
// to record sink reaches, result taint, blocking operations, and lock
// acquisitions.

// plaintextWriteSinkNames are callees that put their payload on the
// wire without sealing it. The record layer's WriteRecord is NOT here:
// it seals internally once a cipher is installed, and static analysis
// cannot see cipher activation — instead the engine treats any write to
// a connection-shaped value (isConnLike) as a plaintext sink, which
// catches record-layer bypasses, and these names catch explicitly
// plaintext helpers.
var plaintextWriteSinkNames = map[string]bool{
	"WritePlaintext":       true,
	"WritePlaintextRecord": true,
	"writePlaintextRecord": true,
}

// vaultWipeMethods are the Vault teardown entry points: an enclave
// transition (EnclaveVault) or a full zeroization sweep, neither of
// which belongs under a state mutex.
var vaultWipeMethods = map[string]bool{"Wipe": true, "WipeNamespace": true}

// scan walks the body once after taint convergence, recording sinks,
// returns, blocking operations, and lock acquisitions into st.sum.
func (st *funcState) scan(body ast.Node) {
	walkWithStack(body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			st.scanCallSinks(n)
			st.scanCallLocks(n)
			if desc, ok := st.callBlockDesc(n); ok && !underGoStmt(stack) {
				st.noteBlock(desc)
			}
		case *ast.AssignStmt:
			st.scanGlobalEscape(n)
		case *ast.ReturnStmt:
			st.scanReturn(n)
		case *ast.SendStmt:
			if !underGoStmt(stack) && !inSelectComm(stack, n) {
				st.noteBlock("channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !underGoStmt(stack) && !inSelectComm(stack, n) {
				st.noteBlock("channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) && !underGoStmt(stack) {
				st.noteBlock("select without default")
			}
		case *ast.RangeStmt:
			if tv, ok := st.info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !underGoStmt(stack) {
					st.noteBlock("range over channel")
				}
			}
		}
	})
}

// underGoStmt reports whether the node runs on a different goroutine
// than the function (inside a go statement): its blocking does not
// block the function itself. Deferred calls DO count — they run before
// earlier-registered deferred unlocks.
func underGoStmt(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

// inSelectComm reports whether the node sits in the communication
// clause of a select (before the case's colon): those operations take
// the select's blocking semantics — non-blocking with a default case,
// and already counted once at the SelectStmt otherwise.
func inSelectComm(stack []ast.Node, n ast.Node) bool {
	for _, a := range stack {
		if cc, ok := a.(*ast.CommClause); ok && n.Pos() < cc.Colon {
			return true
		}
	}
	return false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func (st *funcState) noteBlock(desc string) {
	if !st.sum.Blocks {
		st.sum.Blocks = true
		st.sum.BlockDesc = desc
	}
}

// sinkDesc classifies a call as a leak sink and returns a description
// plus the argument expressions whose taint constitutes a leak.
func (st *funcState) sinkDesc(call *ast.CallExpr) (string, []ast.Expr) {
	name := calleeName(call)
	pkg := calleePkg(st.info, call)
	if funcs, ok := formatSinkFuncs[pkg]; ok && funcs[name] {
		return pkg + "." + name, call.Args
	}
	if plaintextWriteSinkNames[name] {
		return "plaintext record write " + name, call.Args
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if _, isMethod := st.info.Selections[sel]; !isMethod {
		return "", nil
	}
	// Method sinks: writes to connection-shaped receivers put bytes on
	// the wire unsealed; logger-shaped methods format into logs.
	if name == "Write" || name == "WriteString" {
		if tv, ok := st.info.Types[sel.X]; ok && isConnLike(tv.Type) {
			return "plaintext connection write", call.Args
		}
	}
	if methodSinkNames[name] {
		// Only when the callee is unresolvable as a module function —
		// otherwise its own summary speaks.
		if len(st.e.Callees(st.fi.Pkg, call)) == 0 {
			return "log method " + name, call.Args
		}
	}
	return "", nil
}

// scanCallSinks reports tainted arguments reaching sinks: directly
// (fmt/log/errors, plaintext writes) or transitively through a module
// callee whose summary marks the parameter as sink-reaching.
func (st *funcState) scanCallSinks(call *ast.CallExpr) {
	if desc, args := st.sinkDesc(call); desc != "" {
		for _, arg := range args {
			st.noteSink(arg, call.Pos(), desc, "")
		}
		return
	}
	// Through module callees.
	for _, callee := range st.e.Callees(st.fi.Pkg, call) {
		sum := callee.Summary
		if sum.SinkParams == 0 {
			continue
		}
		args := st.callArgs(call)
		for pi := 0; pi < len(args) && pi < maxTrackedParams; pi++ {
			if sum.SinkParams&paramOrigin(pi) == 0 {
				continue
			}
			via := funcDisplay(callee)
			if deeper := sum.SinkVia[pi]; deeper != "" {
				via += " → " + deeper
			}
			st.noteSink(args[pi], call.Pos(), via, via)
		}
	}
}

// noteSink handles one sink-reaching expression: fresh taint is a
// finding here and now; parameter taint becomes part of the summary so
// callers are checked instead.
func (st *funcState) noteSink(arg ast.Expr, pos token.Pos, desc, via string) {
	o := st.exprOrigins(arg)
	if o == 0 {
		return
	}
	if o&freshOrigin != 0 {
		name := exprName(arg)
		if name == "" {
			name = "value"
		}
		st.finds = append(st.finds, engineFinding{
			pkg: st.fi.Pkg,
			pos: pos,
			msg: fmt.Sprintf("secret %q reaches %s", name, desc),
			via: via,
		})
	}
	for pi := 0; pi < len(st.sum.ParamToResults); pi++ {
		if o&paramOrigin(pi) != 0 {
			st.sum.SinkParams |= paramOrigin(pi)
			if _, ok := st.sum.SinkVia[pi]; !ok {
				st.sum.SinkVia[pi] = desc
			}
		}
	}
}

// scanGlobalEscape flags tainted values assigned to package-level
// variables: host-visible memory that outlives every enclave callback.
func (st *funcState) scanGlobalEscape(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		obj := st.lhsObj(lhs)
		if obj == nil || obj.Parent() != st.fi.Pkg.Types.Scope() {
			continue
		}
		var o originSet
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				o = st.callResultOrigins(call, i)
			} else {
				o = st.exprOrigins(n.Rhs[0])
			}
		} else if i < len(n.Rhs) {
			o = st.exprOrigins(n.Rhs[i])
		}
		if o&freshOrigin != 0 {
			st.finds = append(st.finds, engineFinding{
				pkg: st.fi.Pkg,
				pos: n.Pos(),
				msg: fmt.Sprintf("secret escapes to package-level variable %q (host-visible memory)", obj.Name()),
			})
		}
		for pi := 0; pi < len(st.sum.ParamToResults); pi++ {
			if o&paramOrigin(pi) != 0 {
				st.sum.SinkParams |= paramOrigin(pi)
				if _, ok := st.sum.SinkVia[pi]; !ok {
					st.sum.SinkVia[pi] = "package-level variable " + obj.Name()
				}
			}
		}
	}
}

// scanReturn records which origins flow out through which results.
func (st *funcState) scanReturn(n *ast.ReturnStmt) {
	record := func(res int, o originSet) {
		if res >= 32 || o == 0 {
			return
		}
		if o&freshOrigin != 0 {
			st.sum.FreshResults |= 1 << uint(res)
		}
		for pi := 0; pi < len(st.sum.ParamToResults); pi++ {
			if o&paramOrigin(pi) != 0 {
				st.sum.ParamToResults[pi] |= 1 << uint(res)
			}
		}
	}
	if len(n.Results) == 0 {
		// Bare return: named results carry their accumulated origins.
		for obj, res := range st.results {
			record(res, st.origins[obj])
		}
		return
	}
	if len(n.Results) == 1 {
		if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
			if sig, ok := st.fi.Obj.Type().(*types.Signature); ok && sig.Results().Len() > 1 {
				for res := 0; res < sig.Results().Len(); res++ {
					record(res, st.callResultOrigins(call, res))
				}
				return
			}
		}
	}
	for res, expr := range n.Results {
		record(res, st.exprOrigins(expr))
	}
}

// scanCallLocks records mutex acquisitions: the function's own
// Lock/RLock calls plus its module callees' transitive sets.
func (st *funcState) scanCallLocks(call *ast.CallExpr) {
	name := calleeName(call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && (name == "Lock" || name == "RLock") {
		if lk := lockKey(st.info, sel.X); lk != "" {
			st.acquire[lk] = true
		}
		return
	}
	if callee := st.e.StaticCallee(st.fi.Pkg, call); callee != nil {
		for _, k := range callee.Summary.Acquires {
			st.acquire[k] = true
		}
	}
}

// callBlockDesc reports whether a call may block the calling goroutine.
func (st *funcState) callBlockDesc(call *ast.CallExpr) (string, bool) {
	return st.e.CallBlockDesc(st.fi.Pkg, call)
}

// CallBlockDesc reports whether a call may block the calling goroutine:
// time.Sleep, sync waits, connection I/O, a Vault wipe (an enclave
// transition), or a module callee whose summary blocks. Lock and Unlock
// themselves are excluded — the lock-order analyzer owns lock/lock
// interactions.
func (e *Engine) CallBlockDesc(pkg *Package, call *ast.CallExpr) (string, bool) {
	info := pkg.Info
	name := calleeName(call)
	cpkg := calleePkg(info, call)
	switch {
	case cpkg == "time" && name == "Sleep":
		return "time.Sleep", true
	case name == "Lock" || name == "RLock" || name == "Unlock" || name == "RUnlock":
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			tv := info.Types[sel.X]
			if vaultWipeMethods[name] && isVaultType(tv.Type) {
				return "vault wipe (" + name + ")", true
			}
			switch name {
			case "Wait":
				// Only WaitGroup: Cond.Wait releases its mutex while
				// waiting, so it neither stalls lock holders nor counts
				// as held-across-blocking.
				if named, ok := derefNamed(tv.Type); ok {
					tn := named.Obj()
					if tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup" {
						return "sync.WaitGroup.Wait", true
					}
				}
			case "Read", "Write", "ReadFull", "ReadFrom", "WriteTo", "Flush":
				if isConnLike(tv.Type) {
					return "connection I/O (" + name + ")", true
				}
			}
		}
	}
	if callee := e.StaticCallee(pkg, call); callee != nil && callee.Summary.Blocks {
		// Keep the description anchored at the root cause: "<op> in
		// <func>" stays stable however deep the call chain grows.
		desc := callee.Summary.BlockDesc
		if !strings.Contains(desc, " in ") {
			desc += " in " + funcDisplay(callee)
		}
		return desc, true
	}
	return "", false
}

// shortPos renders a position as base-filename:line, compact enough to
// embed in another diagnostic's message.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// lockKey names a mutex for cross-function identity: a struct field
// mutex keys as "(pkg.Type).field", a package-level mutex as
// "pkg.var". Locks reached through locals, parameters, or function
// results have no stable identity and return "" (untracked — a
// documented soundness limit that exempts I/O-serialization mutexes
// passed by pointer).
func lockKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		s, ok := info.Selections[e]
		if !ok || s.Kind() != types.FieldVal {
			return ""
		}
		rt := s.Recv()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return ""
		}
		tn := named.Obj()
		pkgPath := ""
		if tn.Pkg() != nil {
			pkgPath = tn.Pkg().Path() + "."
		}
		return "(" + pkgPath + tn.Name() + ")." + e.Sel.Name
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// isVaultType reports whether a type is (or points to) a secret vault.
func isVaultType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	return strings.Contains(named.Obj().Name(), "Vault")
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// funcDisplay renders a function's name for diagnostics:
// "(*core.Session).Close" or "core.ClassifyError".
func funcDisplay(fi *FuncInfo) string {
	obj := fi.Obj
	sig := obj.Type().(*types.Signature)
	short := func(t types.Type) string {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	if recv := sig.Recv(); recv != nil {
		return "(" + short(recv.Type()) + ")." + obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
