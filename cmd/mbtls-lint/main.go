// Command mbtls-lint runs the protocol-invariant analyzer suite
// (internal/analysis) over the module and exits non-zero on findings.
// It is part of the tier-1 verify recipe: the invariants the paper's
// security argument rests on — constant-time key comparison, key
// zeroization, pooled-buffer ownership, the enclave boundary,
// crypto-grade randomness, secret-taint containment, atomic-access
// discipline, deadlock-free lock ordering, and classifiable boundary
// errors — are machine-checked on every change.
//
// Usage:
//
//	mbtls-lint [-checks name,name] [-json] [./...]
//	mbtls-lint -reach allowlist
//
// With -reach it checks the reachability ledger instead (DESIGN.md §8):
// it builds every program with the linker's -dumpdep and fails on a
// declaration no program reaches that the allowlist does not name, and
// on an allowlist entry that names no such declaration.
//
// With -json each finding is one JSON object per line (see DESIGN.md
// §8 for the schema), for editors and CI annotators; the human
// file:line:col form is the default.
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// jsonDiagnostic is the -json wire form of one finding, one object per
// line. Field names are part of the tool's interface; see DESIGN.md §8.
type jsonDiagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
	// Via is the interprocedural provenance of the finding (the call
	// chain a flow traversed), omitted for purely local findings.
	Via string `json:"via,omitempty"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of file:line:col lines")
	ignoreBudget := flag.Int("ignore-budget", analysis.DefaultIgnoreBudget,
		"max //lint:ignore suppressions allowed module-wide (-1 disables the check)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	reach := flag.String("reach", "", "check the reachability ledger against this allowlist instead of running the analyzers")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mbtls-lint [-checks name,name] [./...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
		os.Exit(2)
	}

	// Arguments are package patterns; everything resolves within the
	// module, so "./..." (the only pattern the recipe uses) and no
	// arguments both mean the whole module. A directory argument
	// restricts the report to findings under it.
	filters, err := pathFilters(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
		os.Exit(2)
	}

	pkgs, broken, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint: load:", err)
		os.Exit(2)
	}
	if *reach != "" {
		checkLedger(root, pkgs, *reach)
		return
	}
	// A package that fails to parse or type-check cannot be analyzed
	// honestly: report each one on a line of its own, still analyze the
	// rest of the module, and exit 2 so the run never pretends it
	// covered the broken packages.
	for _, pe := range broken {
		fmt.Fprintf(os.Stderr, "mbtls-lint: load: %v\n", pe)
	}

	// The suppression budget is module-wide by construction, so it runs
	// regardless of which -checks are selected.
	diags := analysis.Run(pkgs, analyzers)
	diags = append(diags, analysis.IgnoreBudget(pkgs, *ignoreBudget)...)
	// Run's output is sorted, but the budget findings merged after it
	// are a separate source: re-sort so emission order (text and -json
	// alike) is deterministic, whatever produced each finding.
	analysis.SortDiagnostics(diags)

	findings := 0
	for _, d := range diags {
		if !filters.match(d.Pos.Filename) {
			continue
		}
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err == nil {
			d.Pos.Filename = rel
		}
		if *jsonOut {
			line, err := json.Marshal(jsonDiagnostic{
				Check:   d.Check,
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Message: d.Message,
				Via:     d.Via,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
				os.Exit(2)
			}
			fmt.Println(string(line))
		} else {
			fmt.Println(d)
		}
		findings++
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mbtls-lint: %d finding(s)\n", findings)
	}
	switch {
	case len(broken) > 0:
		fmt.Fprintf(os.Stderr, "mbtls-lint: %d package(s) failed to load and were not analyzed\n", len(broken))
		os.Exit(2)
	case findings > 0:
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -checks flag.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// pathFilter restricts output to files under the requested directories.
type pathFilter struct{ prefixes []string }

func pathFilters(root string, args []string) (*pathFilter, error) {
	f := &pathFilter{}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return &pathFilter{}, nil // whole module
		}
		recursive := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			recursive = true
			arg = rest
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(abs); err != nil {
			return nil, fmt.Errorf("package pattern %q: %w", arg, err)
		}
		_ = recursive // a directory prefix covers both forms
		f.prefixes = append(f.prefixes, abs+string(filepath.Separator))
	}
	return f, nil
}

func (f *pathFilter) match(file string) bool {
	if len(f.prefixes) == 0 {
		return true
	}
	for _, p := range f.prefixes {
		if strings.HasPrefix(file, p) {
			return true
		}
	}
	return false
}

// checkLedger runs the -reach mode and exits non-zero on any problem.
func checkLedger(root string, pkgs []*analysis.Package, allowlist string) {
	allow, err := os.ReadFile(allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
		os.Exit(2)
	}
	unreached, err := analysis.Unreached(root, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-lint:", err)
		os.Exit(2)
	}
	problems := analysis.CheckLedger(unreached, allow)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "mbtls-lint: %d reachability ledger problem(s)\n", len(problems))
		os.Exit(1)
	}
}
