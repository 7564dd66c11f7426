package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeConfig is a whole run in miniature: the same five windows, a
// twentieth as long.
func smokeConfig() runConfig {
	return runConfig{
		seed:    3,
		window:  50 * time.Millisecond,
		windows: timedWindows,
		warmup:  50 * time.Millisecond,
		setUps:  2,
		clients: hsClients(),
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced, and
// asserts that every named metric is there and finite, that every
// correctness check passed, and that nothing is left running.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	before := runtime.NumGoroutine()
	out := t.TempDir()
	for _, w := range workloads {
		r, err := runWorkload(w, smokeConfig(), false, wallClock{}, out)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		assertCorrect(t, r)
		line := r.line()
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line has %d metrics, want the %d end-to-end ones", w.Name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			s, ok := r.EndToEnd[d.Name]
			if !ok || !(s.Value > 0) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: %s = %v (present %v), want a positive finite number", w.Name, d.Name, s.Value, ok)
			}
			if m := line.Metrics[d.Name]; m.Value != s.Value || m.Unit != d.Unit {
				t.Errorf("%s: result line carries %s as %+v, want %v %s", w.Name, d.Name, m, s.Value, d.Unit)
			}
		}
		if len(r.EndToEnd["ops_per_s"].Windows) != timedWindows || len(r.EndToEnd["setup_s"].Windows) != 2*timedWindows {
			t.Errorf("%s: %d windows and %d set-ups, want %d and %d", w.Name,
				len(r.EndToEnd["ops_per_s"].Windows), len(r.EndToEnd["setup_s"].Windows), timedWindows, 2*timedWindows)
		}

		r, err = runWorkload(w, smokeConfig(), true, wallClock{}, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		assertCorrect(t, r)
		line = r.line()
		for _, d := range perLayer {
			v, ok := r.PerLayer[d.Name]
			if d.on&w.kind == 0 {
				if ok {
					t.Errorf("%s: %s is reported, but the workload does not define it", w.Name, d.Name)
				}
			} else if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v), want a finite number", w.Name, d.Name, v, ok)
			}
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: result line lacks %s in %s", w.Name, d.Name, d.Unit)
			}
		}
		assertBypasses(t, w, r.PerLayer)
		assertTraceFile(t, filepath.Join(out, "trace-"+w.Name+".json"))
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("%d goroutines outlived the workloads", n)
	}
	if took := time.Since(start); took > 10*time.Second && !raceDetector {
		t.Errorf("smoke run took %v, want under 10s", took)
	}
}

func assertCorrect(t *testing.T, r workloadResult) {
	t.Helper()
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", r.Name, c.Name, c.Detail)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", r.Name, r.Correct, r.Failed, r.Attempted)
	}
}

// assertBypasses checks the predictions that make the workloads a set:
// what one exercises another goes around.
func assertBypasses(t *testing.T, w workload, v map[string]float64) {
	t.Helper()
	expect := func(name string, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("%s: %s = %v breaks the workload's prediction", w.Name, name, v[name])
		}
	}
	switch {
	case w.kind == kindHS && w.resumed:
		expect("core.resumed_share", v["core.resumed_share"] == 1)
		expect("hsfast.keyshare_calls_per_session", v["hsfast.keyshare_calls_per_session"] < 0.1)
		expect("hsfast.stek_calls_per_session", v["hsfast.stek_calls_per_session"] > 0)
	case w.kind == kindHS:
		expect("core.resumed_share", v["core.resumed_share"] == 0)
		expect("hsfast.keyshare_calls_per_session", v["hsfast.keyshare_calls_per_session"] >= 1)
		expect("enclave.transitions_per_session", v["enclave.transitions_per_session"] > 0)
	case w.kind == kindRR:
		expect("core.pipeline_share", v["core.pipeline_share"] == 0)
		expect("mbapps.process_ns_per_chunk", v["mbapps.process_ns_per_chunk"] > 0)
	case w.sgx:
		expect("enclave.transitions_per_record", v["enclave.transitions_per_record"] > 0)
	default:
		expect("enclave.transitions_per_record", v["enclave.transitions_per_record"] == 0)
	}
	if w.kind != kindHS {
		expect("core.records_per_chunk", v["core.records_per_chunk"] > 0)
	}
	expect("transport.writes_per_op", v["transport.writes_per_op"] > 0)
	expect("sessionhost.overloaded", v["sessionhost.overloaded"] == 0)
}

func assertTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	ids := map[uint64]bool{}
	for _, s := range f.Spans {
		ids[s.ID] = true
	}
	children := 0
	for _, s := range f.Spans {
		if s.Op == 0 || s.End < s.Start || s.Name == "" {
			t.Errorf("%s: malformed span %+v", path, s)
			return
		}
		if s.Parent != 0 && ids[s.Parent] {
			children++
		}
	}
	if len(f.Spans) == 0 || children == 0 || len(f.Layers) == 0 {
		t.Errorf("%s: %d spans, %d with a kept parent, %d layers: want some of each", path, len(f.Spans), children, len(f.Layers))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"--trace", "2"}, {"--seconds", "0"}, {"-compare", "only-one.json"}} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v exited 0", args)
		}
	}
}
