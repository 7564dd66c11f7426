package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func tight(median float64) summary {
	return summary{Value: median, Min: median * 0.99, Max: median * 1.01}
}

func TestJudgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, cand summary
		lower      bool
		want       verdict
	}{
		{"lower-is-better grew past the bound", tight(100), tight(111), true, worse},
		{"lower-is-better grew inside the bound", tight(100), tight(109), true, within},
		{"lower-is-better fell past the bound", tight(100), tight(85), true, better},
		{"higher-is-better fell past the bound", tight(100), tight(89), false, worse},
		{"higher-is-better fell inside the bound", tight(100), tight(91), false, within},
		{"higher-is-better rose past the bound", tight(100), tight(115), false, better},
		{"wide and overlapping", summary{Value: 100, Min: 80, Max: 120}, tight(112), true, unresolved},
		{"candidate wide and overlapping", tight(100), summary{Value: 112, Min: 95, Max: 130}, true, unresolved},
		{"wide but every window apart", summary{Value: 100, Min: 90, Max: 110}, summary{Value: 140, Min: 125, Max: 150}, true, worse},
		{"wide but every window better", summary{Value: 100, Min: 90, Max: 110}, summary{Value: 60, Min: 50, Max: 70}, true, better},
		{"no baseline", summary{}, tight(5), true, unresolved},
	} {
		if got := judge(tc.base, tc.cand, 0.10, tc.lower); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsRowsAndWorse(t *testing.T) {
	spec := &benchmarkSpec{}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundedMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	result := func(opsPerS float64, failed int64) *resultFile {
		e2e := map[string]summary{}
		for _, d := range endToEnd {
			e2e[d.Name] = tight(10)
		}
		e2e["ops_per_s"] = tight(opsPerS)
		return &resultFile{Workloads: []workloadResult{
			{Name: "hs_full", Correct: failed == 0, Failed: failed, EndToEnd: e2e},
		}}
	}

	var out bytes.Buffer
	if compare(&out, spec, result(1000, 0), result(1040, 0)) {
		t.Errorf("a 4%% gain was reported worse:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "hs_full"); rows != len(endToEnd) {
		t.Errorf("%d rows for hs_full, want one per end-to-end metric (%d):\n%s", rows, len(endToEnd), out.String())
	}

	out.Reset()
	if !compare(&out, spec, result(1000, 0), result(700, 0)) {
		t.Errorf("a 30%% throughput loss was not reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no row says worse:\n%s", out.String())
	}

	out.Reset()
	if !compare(&out, spec, result(1000, 0), result(1000, 3)) {
		t.Errorf("new failures were not reported worse:\n%s", out.String())
	}
}

// A set of runs is judged on its runs' medians, not on any run's
// windows.
func TestReadSetSummarizesRunMedians(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, ops := range []float64{100, 104, 96} {
		run := resultFile{Workloads: []workloadResult{{
			Name: "rr_http", Correct: true, Failed: int64(i),
			EndToEnd: map[string]summary{"ops_per_s": {Value: ops, Min: ops / 2, Max: ops * 2}},
		}}}
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		if err := writeJSON(path, run); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	one, err := readSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Workloads[0].EndToEnd["ops_per_s"]; got.Min != 50 || got.Max != 200 {
		t.Errorf("a single run's summary = %+v, want its own windows' 50..200", got)
	}
	set, err := readSet(strings.Join(paths, ","))
	if err != nil {
		t.Fatal(err)
	}
	w := set.Workloads[0]
	if got := w.EndToEnd["ops_per_s"]; got.Value != 100 || got.Min != 96 || got.Max != 104 {
		t.Errorf("the set's summary = %+v, want median 100 of run medians 96..104", got)
	}
	if w.Failed != 3 || !w.Correct {
		t.Errorf("the set's failed=%d correct=%v, want the runs' sum 3 and true", w.Failed, w.Correct)
	}
	if _, err := readSet(paths[0] + "," + filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file in a set was not an error")
	}
}
