package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes per-function dataflow summaries — the engine under
// the interprocedural analyzers. For every function declared in the
// module it derives, by iterating an intraprocedural transfer function
// to a module-wide fixpoint:
//
//   - which parameters taint which results (key-derivation functions
//     propagate; AEAD seals sanitize),
//   - which results are fresh secret sources (reads of key-material
//     fields, ExportSessionKeys, Vault.UseSecret callbacks),
//   - which parameters reach a leak sink inside the function
//     (fmt/log/errors formatting, plaintext writes to connections,
//     assignments to package-level variables),
//   - whether the function may block (channel operations, defaultless
//     select, connection I/O, Vault wipes), and
//   - which mutexes it may acquire, transitively.
//
// Soundness limits (documented in DESIGN.md §8): taint through heap
// assignments (x.field = secret) is not tracked — instead every *read*
// of a confidentially-named field is a fresh source, which re-anchors
// the flow wherever the heap carried it; calls through function values
// and reflection propagate taint from every argument to every result
// (worst case); interface calls fan out to all module implementations.

// maxTrackedParams bounds the parameter bitsets (the receiver counts as
// parameter 0). Parameters beyond the bound are untracked.
const maxTrackedParams = 62

// originSet is a bitset of taint origins within one function: bit i =
// "carries whatever parameter i carries", freshOrigin = "carries a
// secret sourced inside this function".
type originSet uint64

// freshOrigin marks taint born inside the function (a source), as
// opposed to taint flowing in through a parameter.
const freshOrigin originSet = 1 << 63

func paramOrigin(i int) originSet {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return 1 << uint(i)
}

// Summary is one function's interprocedural dataflow summary.
type Summary struct {
	// ParamToResults[i] is a bitset of result indices that carry taint
	// when parameter i does (receiver first, when present).
	ParamToResults []uint32
	// FreshResults is a bitset of result indices that carry a secret
	// regardless of the inputs: the function is itself a source.
	FreshResults uint32
	// SinkParams is a bitset of parameters that reach a leak sink
	// inside the function (directly or through further calls).
	SinkParams originSet
	// SinkVia describes, per sink parameter, the path to the sink —
	// interprocedural provenance for diagnostics.
	SinkVia map[int]string
	// Blocks reports that the function may block: channel send or
	// receive, select without default, connection I/O, a Vault wipe, or
	// a call to a function that does.
	Blocks bool
	// BlockDesc names the first blocking operation found, for
	// diagnostics ("channel send", "blocking call to (*T).drain").
	BlockDesc string
	// Acquires lists the lock keys (see lockKey) the function may
	// acquire, transitively through module calls.
	Acquires []string
}

func (s Summary) equal(o Summary) bool {
	if s.FreshResults != o.FreshResults || s.SinkParams != o.SinkParams ||
		s.Blocks != o.Blocks || s.BlockDesc != o.BlockDesc ||
		len(s.ParamToResults) != len(o.ParamToResults) ||
		len(s.SinkVia) != len(o.SinkVia) || len(s.Acquires) != len(o.Acquires) {
		return false
	}
	for i := range s.ParamToResults {
		if s.ParamToResults[i] != o.ParamToResults[i] {
			return false
		}
	}
	for k, v := range s.SinkVia {
		if o.SinkVia[k] != v {
			return false
		}
	}
	for i := range s.Acquires {
		if s.Acquires[i] != o.Acquires[i] {
			return false
		}
	}
	return true
}

// secretSourceFuncs are callee names whose first result is always key
// material, wherever they are declared.
var secretSourceFuncs = map[string]bool{
	"ExportSessionKeys": true,
	"ExportPrimaryKeys": true,
}

// enclaveEntryMethods take a callback whose parameters carry
// enclave-resident secrets; the callback parameters are fresh sources.
var enclaveEntryMethods = map[string]bool{"UseSecret": true, "Enter": true}

// sanitizerNames are callees whose results do not carry their
// arguments' taint: AEAD seals and asymmetric encryption (the output is
// safe for the wire), digests (a hash of a key is an identifier, not
// the key — ticket names, cache keys), constant-time compares (public
// verdict), and wipes (no output at all).
var sanitizerNames = map[string]bool{
	"Wipe": true, "WipeNamespace": true,
	"Seal": true, "SealAppend": true, "SealedBox": true,
	"ConstantTimeCompare": true, "ConstantTimeSelect": true, "ConstantTimeByteEq": true,
	"Sum": true, "Sum224": true, "Sum256": true, "Sum384": true, "Sum512": true,
}

// sanitizerPrefixes extends sanitizerNames by prefix (EncryptPKCS1v15,
// EncryptOAEP).
var sanitizerPrefixes = []string{"Encrypt"}

// formatSinkFuncs are the stdlib formatting sinks, per package: a
// secret formatted here lands in a log line, an error string, or an
// operator-visible message.
var formatSinkFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
		"Sprint": true, "Sprintf": true, "Sprintln": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
	},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
		"Output": true,
	},
	"errors": {"New": true},
}

// methodSinkNames are method names treated as formatting sinks when the
// callee cannot be resolved to a module function (a Logf function-value
// field, an embedded logger).
var methodSinkNames = map[string]bool{
	"logf": true, "Logf": true, "Printf": true, "Errorf": true, "Fatalf": true,
}

// secretTypeNames are named types that carry key material wholesale:
// reading any field of them yields a secret.
var secretTypeNames = map[string]bool{
	"KeyMaterial": true, "SessionKeys": true, "HopKeys": true,
}

// secretFieldRead reports whether a selector expression reads a
// key-material field: the field name is confidential (helpers.go) or
// STEK/pre-master-like, or the struct's type is a known key-material
// carrier, and the field's type can hold secret bytes.
func secretFieldRead(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	ft := s.Type()
	carrier := isByteSlice(ft) || isByteArray(ft) || isByteSliceMap(ft) || isString(ft)
	if !carrier {
		// Nested key-carrying structs (KeyMaterial.Down) stay tainted
		// structurally.
		if n, ok := ft.(*types.Named); ok && secretTypeNames[n.Obj().Name()] {
			return true
		}
		return false
	}
	if isPublicKeyType(ft) {
		return false
	}
	name := strings.ToLower(sel.Sel.Name)
	if confidentialName(sel.Sel.Name) ||
		strings.Contains(name, "stek") || strings.Contains(name, "premaster") || strings.Contains(name, "ticketkey") {
		return true
	}
	// Any byte-carrier field of a wholesale key-material struct.
	if rt := s.Recv(); rt != nil {
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok && secretTypeNames[n.Obj().Name()] {
			return true
		}
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// taintableType reports whether a value of this type can carry secret
// bytes: strings, byte slices/arrays, containers of those, and the
// named key-material structs (plus pointers to any of them). Everything
// else — sessions, conns, errors, counters — cannot become "secret by
// association": a struct that *holds* a key is not itself the key, and
// propagating taint through such aggregates drowns the real flows in
// noise. The key-material that matters re-anchors as a fresh source at
// the field read (secretFieldRead), so precision is kept where the
// bytes actually surface.
func taintableType(t types.Type) bool {
	return taintableAtDepth(t, 0)
}

func taintableAtDepth(t types.Type, depth int) bool {
	if t == nil || depth > 4 {
		return false
	}
	if isPublicKeyType(t) {
		return false
	}
	if n, ok := derefNamed(t); ok && secretTypeNames[n.Obj().Name()] {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer:
		return taintableAtDepth(u.Elem(), depth+1)
	case *types.Slice:
		return isByteElem(u.Elem()) || taintableAtDepth(u.Elem(), depth+1)
	case *types.Array:
		return isByteElem(u.Elem()) || taintableAtDepth(u.Elem(), depth+1)
	case *types.Map:
		return isByteElem(u.Elem()) || taintableAtDepth(u.Elem(), depth+1)
	}
	return false
}

func isByteElem(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Rune)
}

// isConnLike reports whether a type's method set looks like a network
// connection (it has deadline setters): writes to it land on the wire.
func isConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(tt)
		if ms.Lookup(nil, "SetReadDeadline") != nil || ms.Lookup(nil, "SetWriteDeadline") != nil {
			return nil != ms.Lookup(nil, "Write")
		}
	}
	return false
}

// funcState is the mutable per-function analysis state during one
// summarize pass.
type funcState struct {
	e       *Engine
	fi      *FuncInfo
	info    *types.Info
	params  map[types.Object]int
	results map[types.Object]int // named results
	origins map[types.Object]originSet
	sum     Summary
	finds   []engineFinding
	acquire map[string]bool
}

// computeSummaries iterates summarize over every module function until
// no summary changes (the transfer is monotone, so this terminates).
func (e *Engine) computeSummaries() {
	const maxRounds = 24
	for round := 0; round < maxRounds; round++ {
		changed := false
		e.secretFindings = nil
		for _, fi := range e.order {
			s, finds := e.summarize(fi)
			if !s.equal(fi.Summary) {
				changed = true
			}
			fi.Summary = s
			e.secretFindings = append(e.secretFindings, finds...)
		}
		if !changed {
			break
		}
	}
}

// summarize computes one function's summary from its body and the
// current summaries of its callees, collecting fresh-taint sink
// findings along the way.
func (e *Engine) summarize(fi *FuncInfo) (Summary, []engineFinding) {
	if fi.Decl == nil || fi.Decl.Body == nil {
		return Summary{}, nil
	}
	st := &funcState{
		e:       e,
		fi:      fi,
		info:    fi.Pkg.Info,
		params:  make(map[types.Object]int),
		results: make(map[types.Object]int),
		origins: make(map[types.Object]originSet),
		acquire: make(map[string]bool),
	}
	sig := fi.Obj.Type().(*types.Signature)
	idx := 0
	if sig.Recv() != nil {
		st.params[sig.Recv()] = idx
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		st.params[sig.Params().At(i)] = idx
		idx++
	}
	st.sum.ParamToResults = make([]uint32, idx)
	st.sum.SinkVia = make(map[int]string)
	for i := 0; i < sig.Results().Len(); i++ {
		if v := sig.Results().At(i); v.Name() != "" {
			st.results[v] = i
		}
	}
	for obj, i := range st.params {
		if taintableType(obj.Type()) {
			st.origins[obj] = paramOrigin(i)
		}
	}

	// Propagate assignments to a local fixpoint, then scan for sinks,
	// returns, blocking operations, and lock acquisitions.
	for pass := 0; pass < 8; pass++ {
		if !st.propagate(fi.Decl.Body) {
			break
		}
	}
	st.scan(fi.Decl.Body)

	st.sum.Acquires = make([]string, 0, len(st.acquire))
	for k := range st.acquire {
		st.sum.Acquires = append(st.sum.Acquires, k)
	}
	sort.Strings(st.sum.Acquires)
	return st.sum, st.finds
}

// exprOrigins computes the taint origins an expression's value carries.
func (st *funcState) exprOrigins(e ast.Expr) originSet {
	if e == nil {
		return 0
	}
	if tv, ok := st.info.Types[e]; ok {
		if tv.Value != nil {
			return 0 // constants are never secrets
		}
		if tv.IsValue() && !taintableType(tv.Type) {
			return 0 // the value cannot carry secret bytes
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.info.Uses[e]
		if obj == nil {
			obj = st.info.Defs[e]
		}
		return st.origins[obj]
	case *ast.SelectorExpr:
		if secretFieldRead(st.info, e) {
			return freshOrigin
		}
		if _, ok := st.info.Selections[e]; ok {
			// A plain field read inherits its operand's taint (a field
			// of a tainted struct value).
			return st.exprOrigins(e.X)
		}
		// Package-qualified name.
		return st.origins[st.info.Uses[e.Sel]]
	case *ast.CallExpr:
		return st.callResultOrigins(e, 0)
	case *ast.IndexExpr:
		return st.exprOrigins(e.X)
	case *ast.SliceExpr:
		return st.exprOrigins(e.X)
	case *ast.StarExpr:
		return st.exprOrigins(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return 0 // channel payloads are not tracked
		}
		return st.exprOrigins(e.X)
	case *ast.ParenExpr:
		return st.exprOrigins(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return 0 // comparisons yield public verdicts
		}
		return st.exprOrigins(e.X) | st.exprOrigins(e.Y)
	case *ast.CompositeLit:
		var o originSet
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				o |= st.exprOrigins(kv.Value)
			} else {
				o |= st.exprOrigins(el)
			}
		}
		return o
	case *ast.TypeAssertExpr:
		return st.exprOrigins(e.X)
	case *ast.FuncLit:
		return 0
	}
	return 0
}

// callResultOrigins computes the origins of result index res of a call.
func (st *funcState) callResultOrigins(call *ast.CallExpr, res int) originSet {
	if !taintableType(st.callResultType(call, res)) {
		return 0
	}
	// Type conversions carry their operand's taint.
	if tv, ok := st.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.exprOrigins(call.Args[0])
		}
		return 0
	}
	name := calleeName(call)
	switch name {
	case "len", "cap", "make", "new":
		return 0
	case "append":
		var o originSet
		for _, a := range call.Args {
			o |= st.exprOrigins(a)
		}
		return o
	}
	if isSanitizer(name) {
		return 0
	}
	if secretSourceFuncs[name] && res == 0 {
		return freshOrigin
	}

	callees := st.e.Callees(st.fi.Pkg, call)
	if len(callees) == 0 {
		// Unresolved (stdlib, function value): worst case — every
		// argument's taint, and the receiver's, reaches every result.
		var o originSet
		for _, a := range call.Args {
			o |= st.exprOrigins(a)
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := st.info.Selections[sel]; isMethod {
				o |= st.exprOrigins(sel.X)
			}
		}
		return o
	}
	var o originSet
	for _, callee := range callees {
		sum := callee.Summary
		if sum.FreshResults&(1<<uint(res)) != 0 {
			o |= freshOrigin
		}
		for pi, args := 0, st.callArgs(call); pi < len(sum.ParamToResults) && pi < len(args); pi++ {
			if sum.ParamToResults[pi]&(1<<uint(res)) != 0 {
				o |= st.exprOrigins(args[pi])
			}
		}
	}
	return o
}

// callResultType resolves the static type of result index res of a call
// expression.
func (st *funcState) callResultType(call *ast.CallExpr, res int) types.Type {
	tv, ok := st.info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		if res < tup.Len() {
			return tup.At(res).Type()
		}
		return nil
	}
	if res == 0 {
		return tv.Type
	}
	return nil
}

// callArgs returns the call's effective argument expressions with the
// receiver (for method calls on module functions) prepended, matching
// the summary's parameter indexing.
func (st *funcState) callArgs(call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isMethod := st.info.Selections[sel]; isMethod && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

func isSanitizer(name string) bool {
	if sanitizerNames[name] {
		return true
	}
	for _, p := range sanitizerPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// assign records that obj now (also) carries origins o. Reports whether
// anything changed. Objects whose type cannot carry secret bytes are
// never tainted (see taintableType).
func (st *funcState) assign(obj types.Object, o originSet) bool {
	if obj == nil || o == 0 || !taintableType(obj.Type()) {
		return false
	}
	old := st.origins[obj]
	if old|o == old {
		return false
	}
	st.origins[obj] = old | o
	return true
}

// lhsObj resolves an assignment target to the object whose value (or
// backing storage, for index/slice/star targets) it mutates.
func (st *funcState) lhsObj(e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := st.info.Uses[id]
	if obj == nil {
		obj = st.info.Defs[id]
	}
	return obj
}

// propagate runs one flow-insensitive pass of assignment-based taint
// propagation over the body. Reports whether any origin set grew.
func (st *funcState) propagate(body ast.Node) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// Multi-value: a call, type assertion, or map read.
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					for i, lhs := range n.Lhs {
						if st.assign(st.lhsObj(lhs), st.callResultOrigins(call, i)) {
							changed = true
						}
					}
					return true
				}
				o := st.exprOrigins(n.Rhs[0])
				for _, lhs := range n.Lhs {
					if st.assign(st.lhsObj(lhs), o) {
						changed = true
					}
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if st.assign(st.lhsObj(n.Lhs[i]), st.exprOrigins(rhs)) {
					changed = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if st.assign(st.info.Defs[name], st.exprOrigins(vs.Values[i])) {
							changed = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			o := st.exprOrigins(n.X)
			if o != 0 {
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if v != nil && st.assign(st.lhsObj(v), o) {
						changed = true
					}
				}
			}
		case *ast.TypeSwitchStmt:
			// switch v := x.(type): each clause binds its own object.
			var x ast.Expr
			if a, ok := n.Assign.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
				if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
					x = ta.X
				}
			}
			if x != nil {
				o := st.exprOrigins(x)
				if o != 0 {
					for _, clause := range n.Body.List {
						if obj := st.info.Implicits[clause]; obj != nil {
							if st.assign(obj, o) {
								changed = true
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			// copy(dst, src) moves src's bytes into dst's storage.
			if calleeName(n) == "copy" && len(n.Args) == 2 {
				if st.assign(st.lhsObj(n.Args[0]), st.exprOrigins(n.Args[1])) {
					changed = true
				}
			}
			// Vault.UseSecret / Enclave.Enter callback parameters are
			// fresh sources.
			if enclaveEntryMethods[calleeName(n)] && len(n.Args) > 0 {
				if lit, ok := ast.Unparen(n.Args[len(n.Args)-1]).(*ast.FuncLit); ok && lit.Type.Params != nil {
					for _, f := range lit.Type.Params.List {
						for _, name := range f.Names {
							if st.assign(st.info.Defs[name], freshOrigin) {
								changed = true
							}
						}
					}
				}
			}
		}
		return true
	})
	return changed
}
