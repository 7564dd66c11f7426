package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// verdict is -compare's answer for one workload × metric row.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares a candidate's summary with a baseline's under a
// bound, the share of the baseline value the metric may worsen by.
//
// The two sets cannot settle the row — unresolved — when their
// min–max ranges overlap and either is wider than the bound: a window
// of one set then reads like a window of the other, and the values'
// distance means nothing. Otherwise the values decide: worse beyond
// the bound, better beyond it the other way, within in between.
func judge(base, cand summary, bound float64, lowerIsBetter bool) verdict {
	if base.Value == 0 {
		return unresolved
	}
	change := (cand.Value - base.Value) / base.Value // > 0: grew
	if !lowerIsBetter {
		change = -change // > 0: worsened
	}
	wide := func(s summary) bool { return s.Value != 0 && (s.Max-s.Min)/s.Value > bound }
	overlap := base.Min <= cand.Max && cand.Min <= base.Max
	switch {
	case overlap && (wide(base) || wide(cand)):
		return unresolved
	case change > bound:
		return worse
	case change < -bound:
		return better
	}
	return within
}

// boundedMetric is one end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json -compare reads: the
// bounds are fixed there, not here.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// readSpec finds BENCHMARK.json beside or above the working directory
// (go run -C benchmark puts the program one level below it).
func readSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readSet reads one side of a comparison: one result file, or several
// separated by commas — a set of runs. A single run is judged on its
// five windows. A set is judged on its runs: each row's value, min and
// max are the median, min and max of the runs' values, which is what
// "the two sets' ranges" should mean once there are runs to have a range
// — windows are five draws of chain and scheduler luck and range wide.
func readSet(arg string) (*resultFile, error) {
	var runs []*resultFile
	for _, path := range strings.Split(arg, ",") {
		r, err := readResult(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	set := &resultFile{Env: runs[0].Env}
	for _, first := range runs[0].Workloads {
		merged := workloadResult{Name: first.Name, Correct: true, EndToEnd: map[string]summary{}}
		values := map[string][]float64{}
		for _, run := range runs {
			for _, w := range run.Workloads {
				if w.Name != first.Name {
					continue
				}
				merged.Correct = merged.Correct && w.Correct
				merged.Failed += w.Failed
				for name, s := range w.EndToEnd {
					values[name] = append(values[name], s.Value)
				}
			}
		}
		for name, v := range values {
			merged.EndToEnd[name] = summarize(v)
		}
		set.Workloads = append(set.Workloads, merged)
	}
	return set, nil
}

// compare prints one verdict per workload × end-to-end metric row of
// two sides and reports whether any row is worse. setup_s is judged on
// its own repetitions, like the rest.
func compare(w io.Writer, spec *benchmarkSpec, base, cand *resultFile) (anyWorse bool) {
	fmt.Fprintf(w, "baseline:  commit=%s seed=%d nproc=%d %s\n", base.Env.Commit, base.Env.Seed, base.Env.NProc, base.Env.GoVersion)
	fmt.Fprintf(w, "candidate: commit=%s seed=%d nproc=%d %s\n", cand.Env.Commit, cand.Env.Seed, cand.Env.NProc, cand.Env.GoVersion)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, r := range cand.Workloads {
		byName[r.Name] = r
	}
	for _, b := range base.Workloads {
		c, ok := byName[b.Name]
		if !ok {
			continue
		}
		if c.Failed > b.Failed || (b.Correct && !c.Correct) {
			fmt.Fprintf(w, "%-16s %-18s %14d %14d %8s %6s  %s\n", b.Name, "failed", b.Failed, c.Failed, "", "any", worse)
			anyWorse = true
		}
		for _, m := range spec.EndToEnd {
			bs, cs := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			v := judge(bs, cs, m.Bound, m.Better == "lower")
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				b.Name, m.Name, bs.Value, cs.Value, 100*ratio(cs.Value-bs.Value, bs.Value), 100*m.Bound, v)
		}
	}
	return anyWorse
}
