package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expected-message substring from a fixture's
// `// want "..."` comment.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// fixtureWants collects the expected diagnostics of a fixture package,
// keyed by line number.
func fixtureWants(pkg *Package) map[int][]string {
	wants := make(map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "want ") {
					continue
				}
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Slash).Line
				wants[line] = append(wants[line], m[1])
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs the analyzer, and checks
// the diagnostics against the fixture's want comments exactly.
func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	wants := fixtureWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no want comments", name)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})

	matched := make(map[int][]bool)
	for line, subs := range wants {
		matched[line] = make([]bool, len(subs))
	}
	for _, d := range diags {
		found := false
		for i, sub := range wants[d.Pos.Line] {
			if strings.Contains(d.Message, sub) && !matched[d.Pos.Line][i] {
				matched[d.Pos.Line][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, subs := range wants {
		for i, sub := range subs {
			if !matched[line][i] {
				t.Errorf("missing diagnostic at %s line %d: want message containing %q", name, line, sub)
			}
		}
	}
}

func TestSecretCompareFixture(t *testing.T) { runFixture(t, "secretcompare", SecretCompare) }

func TestKeyWipeFixture(t *testing.T) { runFixture(t, "keywipe", KeyWipe) }

func TestBufOwnershipFixture(t *testing.T) { runFixture(t, "bufownership", BufOwnership) }

func TestEnclaveBoundaryFixture(t *testing.T) { runFixture(t, "enclaveboundary", EnclaveBoundary) }

func TestCryptoRandFixture(t *testing.T) { runFixture(t, "cryptorand", CryptoRand) }

func TestSecretFlowFixture(t *testing.T) { runFixture(t, "secretflow", SecretFlow) }

func TestAtomicFieldFixture(t *testing.T) { runFixture(t, "atomicfield", AtomicField) }

func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", LockOrder) }

func TestErrorClassFixture(t *testing.T) { runFixture(t, "errorclass", ErrorClass) }

func TestBareTimeFixture(t *testing.T) { runFixture(t, "baretime", BareTime) }

// TestLintDirectiveFixture pins that malformed suppressions are
// themselves findings, whatever analyzers run.
func TestLintDirectiveFixture(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "lintdirective"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Run([]*Package{pkg}, Analyzers())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive findings:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "lintdirective" {
			t.Errorf("got check %q, want lintdirective: %s", d.Check, d)
		}
		if !strings.Contains(d.Message, "malformed") {
			t.Errorf("message does not mention malformed: %s", d)
		}
	}
}

// TestIgnoreBudgetFixture pins the suppression-budget check against a
// fixture with four well-formed directives and one malformed one: at
// the ceiling it stays silent, beyond it each extra directive is
// flagged in source order, and malformed directives do not count
// toward the budget (they are lintdirective findings instead).
func TestIgnoreBudgetFixture(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "ignorebudget"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	pkgs := []*Package{pkg}

	if diags := IgnoreBudget(pkgs, 4); len(diags) != 0 {
		t.Errorf("at the ceiling: got %d findings, want 0:\n%v", len(diags), diags)
	}
	if diags := IgnoreBudget(pkgs, -1); len(diags) != 0 {
		t.Errorf("disabled: got %d findings, want 0", len(diags))
	}

	diags := IgnoreBudget(pkgs, 3)
	if len(diags) != 1 {
		t.Fatalf("one over the ceiling: got %d findings, want 1:\n%v", len(diags), diags)
	}
	if diags[0].Check != "ignorebudget" {
		t.Errorf("check = %q, want ignorebudget", diags[0].Check)
	}
	if diags[0].Pos.Line != 15 {
		t.Errorf("finding anchored at line %d, want 15 (the fourth directive)", diags[0].Pos.Line)
	}
	if !strings.Contains(diags[0].Message, "budget of 3") {
		t.Errorf("message does not state the budget: %s", diags[0])
	}

	if diags := IgnoreBudget(pkgs, 2); len(diags) != 2 {
		t.Errorf("two over the ceiling: got %d findings, want 2:\n%v", len(diags), diags)
	}
}

// TestSuppressionRequiresMatchingCheck pins that a directive for one
// check does not silence another.
func TestSuppressionRequiresMatchingCheck(t *testing.T) {
	idx := &ignoreIndex{byFileLine: map[string]map[int][]*ignoreDirective{
		"f.go": {10: {{file: "f.go", line: 10, checks: []string{"keywipe"}, reason: "r"}}},
	}}
	d := Diagnostic{Check: "secretcompare"}
	d.Pos.Filename, d.Pos.Line = "f.go", 10
	if idx.suppressed(d) {
		t.Error("keywipe directive suppressed a secretcompare finding")
	}
	d.Check = "keywipe"
	if !idx.suppressed(d) {
		t.Error("keywipe directive did not suppress a keywipe finding on its line")
	}
	d.Pos.Line = 11
	if !idx.suppressed(d) {
		t.Error("directive did not cover the line below it")
	}
	d.Pos.Line = 12
	if idx.suppressed(d) {
		t.Error("directive leaked two lines down")
	}
}

// TestRepoClean runs the full suite over the repository itself: the
// tree must stay free of findings (ISSUE: every real violation fixed or
// carries a justified suppression).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow")
	}
	pkgs, broken, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pe := range broken {
		t.Errorf("package failed to load: %v", pe)
	}
	if len(pkgs) < 10 {
		t.Fatalf("implausibly few packages loaded: %d", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("repository finding: %s", d)
	}
	for _, d := range IgnoreBudget(pkgs, DefaultIgnoreBudget) {
		t.Errorf("suppression budget exceeded: %s", d)
	}
}

// TestLoaderSkipsTests pins the test-exemption: _test.go files are not
// part of the analyzed package.
func TestLoaderSkipsTests(t *testing.T) {
	pkg, err := LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader included test file %s", name)
		}
	}
}

// LoadDir type-checks a single standalone directory (a test fixture):
// imports resolve against the standard library and the module the
// directory sits in.
func LoadDir(dir string) (*Package, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(token.NewFileSet())
	for root := absDir; l.modPath == "" && root != filepath.Dir(root); root = filepath.Dir(root) {
		l.modPath, _ = modulePath(root)
		l.modRoot = root
	}
	return l.checkDir(absDir, "fixture/"+filepath.Base(absDir), l)
}
