// Package analysis is a stdlib-only static-analysis framework (go/ast +
// go/parser + go/types) that machine-checks the protocol invariants the
// Go type system cannot see: constant-time comparison of key material,
// key zeroization on teardown, pooled-buffer ownership (DESIGN.md §6),
// the enclave secrecy boundary, and crypto-grade randomness. The
// cmd/mbtls-lint driver runs every analyzer over the module; lint_test.go
// runs them over golden fixtures and pins the repo itself clean.
//
// Findings are suppressed at the use site with a justification comment
// on the flagged line or the line directly above it:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory: a suppression without one is itself reported
// (as check "lintdirective"), so every deviation from an invariant stays
// documented where it happens.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the check that produced it,
// and a human-readable message.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
	// Via is the interprocedural provenance of the finding — the chain
	// of callees a flow traversed before reaching the reported site
	// ("(*core.Session).describe → fmt.Errorf"). Empty for findings
	// whose evidence is entirely local to the reported line.
	Via string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	if d.Via != "" {
		return fmt.Sprintf("%s:%d:%d: %s (via %s) [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Via, d.Check)
	}
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the check identifier used in output and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the check
	// enforces.
	Doc string
	// NeedsEngine marks analyzers that consume the interprocedural
	// engine (call graph + summaries); Run builds it once, shared, when
	// any selected analyzer needs it.
	NeedsEngine bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Engine is the shared interprocedural layer, non-nil iff the
	// analyzer declared NeedsEngine.
	Engine *Engine
	diags  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportViaf records a finding at pos with interprocedural provenance.
func (p *Pass) ReportViaf(pos token.Pos, via, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Via:     via,
	})
}

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SecretCompare,
		KeyWipe,
		BufOwnership,
		EnclaveBoundary,
		CryptoRand,
		BareTime,
		SecretFlow,
		AtomicField,
		LockOrder,
		ErrorClass,
	}
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppressions, and returns the surviving diagnostics sorted by
// position. The packages are loaded and type-checked once (Load) and
// the interprocedural engine is built once, whatever subset of
// analyzers runs. Malformed directives surface as "lintdirective"
// findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var engine *Engine
	for _, a := range analyzers {
		if a.NeedsEngine {
			engine = NewEngine(pkgs)
			break
		}
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &raw}
			if a.NeedsEngine {
				pass.Engine = engine
			}
			a.Run(pass)
		}
	}

	var out []Diagnostic
	index := newIgnoreIndex(pkgs)
	out = append(out, index.problems...)
	for _, d := range raw {
		if !index.suppressed(d) {
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics deterministically — by file, line,
// column, then check name — so repeated runs, CI diffs, and the golden
// repo-clean output never depend on map-iteration order. Drivers must
// re-sort after merging diagnostics from separate sources (Run,
// IgnoreBudget).
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
