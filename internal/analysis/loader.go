package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test sources. Test files are exempt from
	// the protocol invariants (they legitimately compare keys, dump
	// host memory, and seed math/rand), so the loader skips them.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// loader type-checks the module's packages from source, resolving
// module-internal imports recursively and standard-library imports
// through the toolchain's importers.
type loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string

	pkgs    map[string]*Package // by import path, completed
	loading map[string]bool     // cycle detection
	broken  map[string]error    // by import path, failed to load or type-check
	stdlib  map[string]*types.Package
	std     types.Importer // compiled export data (fast path)
	stdSrc  types.Importer // from-source fallback
}

func newLoader(fset *token.FileSet) *loader {
	return &loader{
		fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		broken:  make(map[string]error),
		stdlib:  make(map[string]*types.Package),
		std:     importer.Default(),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer for the type-checker: module-local
// paths load from source, everything else resolves as stdlib.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.importStdlib(path)
}

func (l *loader) importStdlib(path string) (*types.Package, error) {
	if p, ok := l.stdlib[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: unresolvable import %q", path)
		}
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		p, err = l.stdSrc.Import(path)
	}
	if err != nil {
		l.stdlib[path] = nil
		return nil, fmt.Errorf("analysis: import %q: %w", path, err)
	}
	l.stdlib[path] = p
	return p, nil
}

// loadModulePkg loads the module package at the given import path.
// Failures are cached in l.broken so a package shared by many importers
// is parsed (and reported) once.
func (l *loader) loadModulePkg(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if err, ok := l.broken[path]; ok {
		return nil, err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	pkg, err := l.checkDir(dir, path, l)
	if err != nil {
		l.broken[path] = err
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkDir parses and type-checks one directory as a package. Parse
// and type errors fail the package (the caller records it as broken):
// analyzing a package the compiler rejects would report findings
// against types that do not exist.
func (l *loader) checkDir(dir, path string, imp types.Importer) (*Package, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var terrs []error
	cfg := types.Config{
		Importer: imp,
		Error: func(err error) {
			terrs = append(terrs, err)
		},
	}
	tpkg, _ := cfg.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		return nil, terrs[0]
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// goSources lists the directory's non-test Go files that build on the
// current platform, sorted. Build-constrained files (//go:build tags,
// _GOOS suffixes — e.g. the tcpx SO_REUSEPORT split) are filtered the
// way the compiler would, so platform alternates don't collide as
// duplicate declarations.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", errors.New("analysis: no module directive in go.mod")
}

// PackageError reports one package that failed to load or type-check.
// The driver prints one line per broken package and skips it from
// analysis, rather than panicking on partial type information or
// silently analyzing a package the compiler would reject.
type PackageError struct {
	// Path is the package's import path.
	Path string
	// Err is the first parse or type error, representative of the
	// package's breakage.
	Err error
}

// Error implements the error interface.
func (e *PackageError) Error() string {
	return fmt.Sprintf("%s: %v", e.Path, e.Err)
}

// Load type-checks every package under the module rooted at root and
// returns the clean ones sorted by import path. Packages that fail to
// parse or type-check are excluded from the result and reported as
// PackageErrors (sorted by path), so the driver can refuse to trust
// partial type information without losing the rest of the module. The
// final error is reserved for module-level failures (no go.mod,
// unreadable tree).
func Load(root string) ([]*Package, []*PackageError, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		return nil, nil, err
	}
	l := newLoader(token.NewFileSet())
	l.modPath = modPath
	l.modRoot = absRoot

	dirs, err := packageDirs(absRoot)
	if err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(absRoot, dir)
		if err != nil {
			return nil, nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := l.loadModulePkg(path); err != nil {
			l.broken[path] = err
		}
	}

	var pkgs []*Package
	var broken []*PackageError
	for path, err := range l.broken {
		broken = append(broken, &PackageError{Path: path, Err: err})
		delete(l.pkgs, path)
	}
	for _, pkg := range l.pkgs {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	sort.Slice(broken, func(i, j int) bool { return broken[i].Path < broken[j].Path })
	return pkgs, broken, nil
}

// packageDirs walks the module and returns every directory holding
// non-test Go sources, skipping hidden directories and testdata trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
