package analysis

import (
	"go/types"
	"strings"
)

// BareTime forbids reading the wall clock or arming a timer through
// package time in non-test code: time on the session path comes from a
// clock.Clock — clock.Of(conn), or clock.Real{} where wall time is the
// point — so tests can move it and each party reads its own
// transport's time base (DESIGN.md §7). Calls and function values
// alike are flagged. The clock package itself, the commands, the
// frozen benchmark, the experiment and adversary harnesses, and the
// test-support packages measure or wait in wall time by design.
var BareTime = &Analyzer{
	Name: "baretime",
	Doc:  "time.Now/Since/Until/After/AfterFunc/NewTimer/NewTicker/Tick/Sleep are forbidden outside internal/clock and the harnesses",
	Run:  runBareTime,
}

var bareTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
}

// bareTimeExempt are module-relative package path prefixes.
var bareTimeExempt = []string{
	"internal/clock", "cmd/", "benchmark", "internal/experiments", "internal/timing", "internal/adversary",
	"internal/testutil/", "internal/chain/chaintest", "internal/transport/conformancetest",
}

func runBareTime(pass *Pass) {
	_, rel, _ := strings.Cut(pass.Pkg.Path, "/")
	for _, prefix := range bareTimeExempt {
		if strings.HasPrefix(rel, prefix) {
			return
		}
	}
	for id, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !bareTimeFuncs[fn.Name()] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() == nil { // not Time.After and kin
			pass.Reportf(id.Pos(), "time.%s reads the wall clock: take a clock.Clock (clock.Of(conn), or clock.Real{} for wall time)", fn.Name())
		}
	}
}
