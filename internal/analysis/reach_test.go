package analysis

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDeclarationsNameLikeTheLinker pins the symbol form the ledger
// matches against -dumpdep: pointer and value receivers, type
// parameters dropped, init left out.
func TestDeclarationsNameLikeTheLinker(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range declarations([]*Package{pkg}) {
		got = append(got, d.Symbol)
	}
	want := []string{"fixture/reach.F", "fixture/reach.(*T).M", "fixture/reach.T.V", "fixture/reach.(*G).Get"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declarations = %q, want %q", got, want)
	}
}

// TestReachedParsesDumpdep feeds reached lines in the linker's form:
// both ends of an edge count, tags go, instantiations match their
// generic declaration.
func TestReachedParsesDumpdep(t *testing.T) {
	dump := []byte(`# repro/cmd/x
main.main -> repro/internal/a.F
main.main -> type:repro/internal/a.T <UsedInIface>
repro/internal/a.(*G[go.shape.int,go.shape.struct { x [4]uint8 }]).Get -> repro/internal/a.H
`)
	got := reached(dump)
	for _, sym := range []string{"main.main", "repro/internal/a.F", "type:repro/internal/a.T", "repro/internal/a.(*G).Get", "repro/internal/a.H"} {
		if !got[sym] {
			t.Errorf("%s not reached", sym)
		}
	}
	if len(got) != 5 {
		t.Errorf("reached = %v, want exactly five symbols", got)
	}
}

// TestCheckLedgerFailsBothWays: an unreached declaration the allowlist
// does not name fails, so does an entry without a reason, and so does
// an entry that names nothing unreached.
func TestCheckLedgerFailsBothWays(t *testing.T) {
	unreached := []Decl{{Symbol: "p.A"}, {Symbol: "p.B"}, {Symbol: "p.D"}}
	allow := []byte("# comment\n\np.A kept for a reason\np.B\np.C reached since\n")
	problems := CheckLedger(unreached, allow)
	want := []string{"p.B has no reason", "not allowlisted", "stale allowlist entry (reached now, or gone): p.C"}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], w)
		}
	}
	if !strings.HasSuffix(problems[1], "p.D") {
		t.Errorf("problem %q does not name p.D", problems[1])
	}
	if got := CheckLedger(unreached[:1], []byte("p.A reason\n")); len(got) != 0 {
		t.Errorf("a matching ledger reports %q", got)
	}
}
