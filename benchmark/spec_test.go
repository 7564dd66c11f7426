package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateSpec = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

// TestSpecMatchesCode keeps BENCHMARK.json, which the driver and
// -compare read, in step with the tables the program reports from:
// the file must be exactly what the tables generate. After changing a
// table, run the test once with -update.
func TestSpecMatchesCode(t *testing.T) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []namedWhy      `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []unbounded     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the driver allows 200", w.Name, len(w.Why))
		}
		spec.Workloads = append(spec.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.on != kindAll {
			t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25] and every workload", d.Name)
		}
		spec.EndToEnd = append(spec.EndToEnd, boundedMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 || len(spec.Workloads) > 8 {
		t.Errorf("the driver allows 8 workloads, 16 end-to-end and 128 per-layer metrics; have %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *updateSpec {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json is not what the program's tables generate; run this test with -update and review the diff")
	}
}
