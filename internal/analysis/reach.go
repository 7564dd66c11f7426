package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Decl is one function or method declared in the module, named the way
// the linker names it ("repro/internal/tls12.(*Config).Wipe").
type Decl struct {
	Symbol string
	Pos    token.Position
	Lines  int
}

// declarations lists the functions and methods of pkgs, init functions
// aside, by linker symbol.
func declarations(pkgs []*Package) []Decl {
	var out []Decl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
				out = append(out, Decl{Symbol: pkg.Path + "." + name, Pos: start, Lines: end.Line - start.Line + 1})
			}
		}
	}
	return out
}

// recvName renders a receiver type as the linker does: "(*T)" or "T",
// type parameters dropped.
func recvName(t ast.Expr) string {
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// reached parses the linker's -dumpdep output ("from -> to" per kept
// edge) into the set of symbols it kept, with instantiation brackets
// ("Pool[go.shape.int]") dropped so generic code matches its
// declaration.
func reached(dumpdep []byte) map[string]bool {
	set := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(dumpdep))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		to, _, _ = strings.Cut(to, " <") // "<UsedInIface>" and other tags
		set[stripBrackets(from)] = true
		set[stripBrackets(to)] = true
	}
	return set
}

func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Unreached builds every program of the module rooted at root — each
// package main in pkgs, the nested benchmark module's included — with
// inlining off and -ldflags=-dumpdep, and returns the declarations no
// program's binary keeps, sorted by symbol. Programs themselves, nested
// modules, and the root package (mbtls.go, the public API: its own
// declarations count as reached) are not listed.
func Unreached(root string, pkgs []*Package) ([]Decl, error) {
	var mains []string
	var nested []string
	var listed []*Package
	for _, pkg := range pkgs {
		_, err := os.Stat(filepath.Join(pkg.Dir, "go.mod"))
		isNested := err == nil && pkg.Dir != root
		switch {
		case pkg.Types.Name() == "main" && isNested:
			nested = append(nested, pkg.Dir)
		case pkg.Types.Name() == "main":
			mains = append(mains, pkg.Dir)
		case !isNested && pkg.Dir != root:
			listed = append(listed, pkg)
		}
	}
	build := func(dir string, targets ...string) ([]byte, error) {
		args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull}, targets...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go build in %s: %v\n%s", dir, err, out)
		}
		return out, nil
	}
	dump, err := build(root, mains...)
	if err != nil {
		return nil, err
	}
	for _, dir := range nested {
		out, err := build(dir, ".")
		if err != nil {
			return nil, err
		}
		dump = append(dump, out...)
	}
	kept := reached(dump)
	var out []Decl
	for _, d := range declarations(listed) {
		if !kept[d.Symbol] {
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Symbol < out[j].Symbol })
	return out, nil
}

// CheckLedger diffs the unreached declarations against an allowlist —
// one "symbol reason" line per kept declaration, '#' comments and blank
// lines aside — and returns one problem per entry without a reason, per
// declaration missing from it, and per stale entry that names no
// unreached declaration.
func CheckLedger(unreached []Decl, allowlist []byte) []string {
	allowed := make(map[string]bool)
	var problems []string
	for i, line := range strings.Split(string(allowlist), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s has no reason", i+1, sym))
		}
		allowed[sym] = true
	}
	for _, d := range unreached {
		if !allowed[d.Symbol] {
			problems = append(problems, fmt.Sprintf("unreached, not allowlisted (%s:%d, %d lines): %s", d.Pos.Filename, d.Pos.Line, d.Lines, d.Symbol))
		}
		delete(allowed, d.Symbol)
	}
	var stale []string
	for sym := range allowed {
		stale = append(stale, "stale allowlist entry (reached now, or gone): "+sym)
	}
	sort.Strings(stale)
	return append(problems, stale...)
}
