package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces the package's locking discipline on three fronts:
//
//  1. Acquisition order. Every pair of mutexes a package ever holds
//     together must be acquired in one global order; the analyzer
//     records every "lock B while A is held" edge (including edges
//     contributed transitively by module callees' summaries) and
//     reports any cycle. Order inversions are the classic deadlock: two
//     goroutines each holding what the other wants.
//
//  2. No blocking under a state mutex. A registry or session mutex held
//     across a channel operation, a defaultless select, connection
//     I/O, time.Sleep, or a blocking module call stalls
//     every other goroutine that needs the lock — the exact shape of
//     a drain regression the session host once had.
//     Mutexes whose names mark them as I/O-serialization locks (wmu,
//     writeMu, the per-direction downW/upW, the handshake mutex) are
//     exempt: being held across the I/O they serialize is their job.
//
//  3. No recursive acquisition. Locking a mutex already held by the
//     same control-flow path — directly, or through a module callee
//     whose summary acquires it — self-deadlocks (sync.Mutex is not
//     reentrant).
//
// Lock identity is the engine's lockKey: "(pkg.Type).field" or
// "pkg.var". Two distinct instances of the same field (two hosts)
// share a key, so same-key re-acquisition is only reported when the
// receiver expression is textually identical; locks reached through
// locals or parameters have no stable identity and are not tracked.
var LockOrder = &Analyzer{
	Name:        "lockorder",
	Doc:         "consistent lock acquisition order; no state mutex held across blocking operations",
	NeedsEngine: true,
	Run:         runLockOrder,
}

// lockSite is one acquisition of a held lock: where, and on which
// receiver expression (to tell two instances of the same field apart).
type lockSite struct {
	pos  token.Pos
	expr string
}

// lockEdge records "to was acquired while from was held", at pos.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

type lockScanner struct {
	pass   *Pass
	e      *Engine
	info   *types.Info
	edges  []lockEdge
	edgeAt map[[2]string]token.Pos
}

func runLockOrder(pass *Pass) {
	ls := &lockScanner{
		pass:   pass,
		e:      pass.Engine,
		info:   pass.Pkg.Info,
		edgeAt: make(map[[2]string]token.Pos),
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ls.walkStmts(fd.Body.List, make(map[string]lockSite))
			}
		}
	}
	ls.reportCycles()
}

// reportCycles finds acquisition-order cycles in the package's edge
// graph and reports each participating edge once, in source order.
func (ls *lockScanner) reportCycles() {
	adj := make(map[string]map[string]bool)
	for _, e := range ls.edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	for _, e := range ls.edges {
		if !lockReaches(adj, e.to, e.from) {
			continue
		}
		other := ""
		if p, ok := ls.edgeAt[[2]string{e.to, e.from}]; ok {
			other = fmt.Sprintf(" (opposite order at %s)", shortPos(ls.pass.Pkg.Fset, p))
		}
		ls.pass.Reportf(e.pos, "%s acquired while %s is held, but elsewhere the order is reversed%s; inconsistent lock order can deadlock", e.to, e.from, other)
	}
}

// lockReaches reports whether `to` is reachable from `from` in the
// acquisition-order graph.
func lockReaches(adj map[string]map[string]bool, from, to string) bool {
	seen := make(map[string]bool)
	var dfs func(string) bool
	dfs = func(n string) bool {
		if n == to {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for m := range adj[n] {
			if dfs(m) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func copyHeld(held map[string]lockSite) map[string]lockSite {
	out := make(map[string]lockSite, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func heldKeys(held map[string]lockSite) []string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// walkStmts interprets a statement list linearly, threading the
// held-lock set through it. Branches run on copies of the set (a lock
// acquired in only one branch is not assumed held after the join — an
// under-approximation that trades soundness for zero false positives on
// conditional locking).
func (ls *lockScanner) walkStmts(list []ast.Stmt, held map[string]lockSite) {
	for _, s := range list {
		ls.stmt(s, held)
	}
}

func (ls *lockScanner) stmt(s ast.Stmt, held map[string]lockSite) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		ls.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.expr(e, held)
		}
		for _, e := range s.Lhs {
			ls.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ls.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.expr(e, held)
		}
	case *ast.IncDecStmt:
		ls.expr(s.X, held)
	case *ast.SendStmt:
		ls.expr(s.Chan, held)
		ls.expr(s.Value, held)
		ls.blockEvent(s.Pos(), "a channel send", held)
	case *ast.GoStmt:
		// The spawned goroutine blocks and locks on its own stack.
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held to function exit (it
		// stays in the held set); other deferred work runs at exit and
		// is not interpreted here.
	case *ast.BlockStmt:
		ls.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		ls.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		ls.expr(s.Cond, held)
		ls.stmt(s.Body, copyHeld(held))
		if s.Else != nil {
			ls.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.expr(s.Cond, held)
		}
		h := copyHeld(held)
		ls.stmt(s.Body, h)
		if s.Post != nil {
			ls.stmt(s.Post, h)
		}
	case *ast.RangeStmt:
		ls.expr(s.X, held)
		if tv, ok := ls.info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				ls.blockEvent(s.Pos(), "a range over a channel", held)
			}
		}
		ls.stmt(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, e := range cc.List {
					ls.expr(e, h)
				}
				ls.walkStmts(cc.Body, h)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			ls.blockEvent(s.Pos(), "a select with no default", held)
		}
		// The comm clauses themselves are covered by the select-level
		// event (or non-blocking, with a default); only the bodies run.
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ls.walkStmts(cc.Body, copyHeld(held))
			}
		}
	}
}

// expr scans an expression for lock operations, channel receives, and
// blocking calls. Function literals are skipped: they block whoever
// eventually calls them, not the function that defines them.
func (ls *lockScanner) expr(x ast.Expr, held map[string]lockSite) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ls.blockEvent(n.Pos(), "a channel receive", held)
			}
		case *ast.CallExpr:
			ls.call(n, held)
		}
		return true
	})
}

func (ls *lockScanner) call(call *ast.CallExpr, held map[string]lockSite) {
	name := calleeName(call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch name {
		case "Lock", "RLock":
			if lk := lockKey(ls.info, sel.X); lk != "" {
				ls.acquireLock(call, sel, lk, held)
				return
			}
		case "Unlock", "RUnlock":
			if lk := lockKey(ls.info, sel.X); lk != "" {
				delete(held, lk)
				return
			}
		}
	}
	if desc, blocks := ls.e.CallBlockDesc(ls.pass.Pkg, call); blocks {
		ls.blockEvent(call.Pos(), desc, held)
	}
	if callee := ls.e.StaticCallee(ls.pass.Pkg, call); callee != nil {
		for _, k := range callee.Summary.Acquires {
			if site, ok := held[k]; ok {
				ls.pass.Reportf(call.Pos(), "call to %s may acquire %s, which is already held (locked at %s): possible self-deadlock",
					funcDisplay(callee), k, shortPos(ls.pass.Pkg.Fset, site.pos))
				continue
			}
			ls.addEdges(held, k, call.Pos())
		}
	}
}

func (ls *lockScanner) acquireLock(call *ast.CallExpr, sel *ast.SelectorExpr, lk string, held map[string]lockSite) {
	recv := exprName(sel.X)
	if site, ok := held[lk]; ok {
		if site.expr == recv {
			ls.pass.Reportf(call.Pos(), "%s locked again while already held (since %s); recursive locking self-deadlocks",
				lk, shortPos(ls.pass.Pkg.Fset, site.pos))
		}
		// Same key, different receiver expression: two instances of one
		// field — no stable order identity, record nothing.
		return
	}
	ls.addEdges(held, lk, call.Pos())
	held[lk] = lockSite{pos: call.Pos(), expr: recv}
}

func (ls *lockScanner) addEdges(held map[string]lockSite, to string, pos token.Pos) {
	for _, from := range heldKeys(held) {
		if from == to {
			continue
		}
		k := [2]string{from, to}
		if _, ok := ls.edgeAt[k]; !ok {
			ls.edgeAt[k] = pos
			ls.edges = append(ls.edges, lockEdge{from: from, to: to, pos: pos})
		}
	}
}

// blockEvent reports every non-exempt mutex held across a blocking
// operation.
func (ls *lockScanner) blockEvent(pos token.Pos, desc string, held map[string]lockSite) {
	for _, lk := range heldKeys(held) {
		if ioSerializationLock(lk) {
			continue
		}
		site := held[lk]
		ls.pass.Reportf(pos, "%s (locked at %s) is held across %s; unlock before blocking",
			lk, shortPos(ls.pass.Pkg.Fset, site.pos), desc)
	}
}

// ioSerializationLock reports whether a lock key names a mutex whose
// purpose is serializing an operation — locks that are *supposed* to be
// held across the (possibly blocking) work they serialize. The repo's
// naming convention (enforced here, documented in DESIGN.md §8):
// wmu/rmu, writeMu/readMu, per-direction c2sMu/s2cMu/downW/upW, the
// handshake mutex hsMu, and the one-shot alert mutex alertMu. Plain
// state mutexes (mu, lmu, annMu, ...) get the full no-blocking rule.
func ioSerializationLock(lk string) bool {
	name := lk
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	n := strings.ToLower(name)
	for _, cand := range []string{
		n,
		strings.TrimSuffix(n, "mu"),
		strings.TrimSuffix(n, "mutex"),
		strings.TrimSuffix(n, "lock"),
		strings.TrimSuffix(n, "w"),
	} {
		switch cand {
		case "w", "r", "rw", "read", "write", "io", "send", "recv",
			"c2s", "s2c", "down", "up", "hs", "handshake", "flush", "alert":
			return true
		}
	}
	return false
}
