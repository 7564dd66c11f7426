// Command benchmark is the repository's benchmark: one closed-loop
// generator driving seven workloads through the real chain — client,
// sessionhost-hosted client-side middlebox, sessionhost-hosted origin,
// all in this process — and reporting named end-to-end metrics, or, in
// a traced run, named per-layer metrics taken from outside the layers.
// README.md says what each workload and metric is for.
//
//	go run -C benchmark .                          # all seven workloads, end-to-end metrics
//	go run -C benchmark . -trace 1                 # all seven, per-layer metrics and out/trace-*.json
//	go run -C benchmark . -workload rr_http        # one workload; the last line is the driver's JSON
//	go run -C benchmark . -compare a.json b.json   # verdict per workload × metric under BENCHMARK.json's bounds
//	go run -C benchmark . -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json   # the same, set of runs against set of runs
//
// It exits non-zero when a correctness check fails, an operation fails
// or is refused, or -compare finds a row worse.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// timedWindows is fixed: five chains are five draws of scheduler and
	// kernel luck. -seconds stretches the windows, never their number.
	timedWindows = 5
	// defaultSeconds is -seconds' default and BENCHMARK.json's
	// run_seconds: 3 s windows, 150 slices a run. It is what the driver's
	// total time budget fits with a seventh to spare.
	defaultSeconds = 15
	// setUpsPerWindow is how many times each window's chain is set up;
	// all but the last are torn down at once. Set-up takes 5 to 10 ms and
	// setup_s is the median of the run's 30, so the extra ones cost a
	// quarter of a second a run; the median of five did not repeat within
	// a quarter from run to run.
	setUpsPerWindow = 6
	// warmup precedes every window, on that window's fresh chain. Half a
	// second is a thousand sessions or ten thousand chunks: tickets are
	// seeded and caches hot long before it ends.
	warmup = 500 * time.Millisecond
	// probeSliceShare makes a probe slice a twentieth of a window, so
	// the traced run's probes take about as long as its two windows.
	probeSliceShare = 20
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all seven)")
	seed := fs.Uint64("seed", 1, "seed of the payload bytes")
	seconds := fs.Int("seconds", defaultSeconds, "timed seconds per workload, split into five windows")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and out/trace-<workload>.json; 0: end-to-end metrics")
	doCompare := fs.Bool("compare", false, "compare two result files, or two comma-separated sets of them: -compare baseline.json candidate.json")
	out := fs.String("out", "out", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second / timedWindows,
		windows: timedWindows,
		warmup:  warmup,
		setUps:  setUpsPerWindow,
		clients: hsClients(),
	}
	traced := *trace == 1
	if traced {
		// One reference window and one traced window, one set-up each.
		cfg.windows, cfg.setUps = 1, 1
	}
	resultName := "result.json"
	if traced {
		resultName = "layers.json"
	}
	resultPath := filepath.Join(*out, resultName)
	file := resultFile{Env: stamp(cfg, traced)}
	printEnv(stdout, file.Env)
	ok := true
	for _, w := range todo {
		var r workloadResult
		var err error
		if *name != "" {
			r, err = runWorkload(w, cfg, traced, wallClock{}, *out)
		} else {
			r, err = runInChild(w, resultPath, stderr,
				"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), "-out", *out)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		r.print(stdout, w)
		ok = ok && r.Correct
		file.Workloads = append(file.Workloads, r)
	}
	if err := writeJSON(resultPath, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *name != "" {
		fmt.Fprintln(stdout, marshalLine(file.Workloads[0].line()))
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED: a correctness check failed or an operation failed or was refused")
		return 1
	}
	return 0
}

// runInChild runs one workload of the suite in a process of its own,
// as the driver does, and reads its result back. A process that has run
// the hs workloads is not the process it was: it holds some 200 MB of
// heap for half a minute after they end, and bulk_16k then delivers
// 30–40k chunks/s in it where a fresh process delivers 48k. Numbers
// from the suite and from the driver must be the same numbers.
func runInChild(w workload, resultPath string, stderr io.Writer, flags ...string) (workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return workloadResult{}, err
	}
	// Whatever is there is an earlier run's.
	if err := os.Remove(resultPath); err != nil && !os.IsNotExist(err) {
		return workloadResult{}, err
	}
	cmd := exec.Command(exe, append([]string{"-workload", w.Name}, flags...)...)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	child, err := readResult(resultPath)
	if err != nil {
		// No result: the child died before its checks, and why is on
		// its standard error. With a result, a failed run says so itself.
		return workloadResult{}, errors.Join(runErr, err)
	}
	if len(child.Workloads) != 1 || child.Workloads[0].Name != w.Name {
		return workloadResult{}, fmt.Errorf("%s does not hold the child's one workload", resultPath)
	}
	return child.Workloads[0], nil
}

// runWorkload measures one workload. Untraced, that is the five timed
// windows whose slices the end-to-end metrics come from. Traced, it is one untraced
// reference window, one window with every wrapper and decorator
// installed, and the isolated probes; end-to-end metrics never come
// from a traced run.
func runWorkload(w workload, cfg runConfig, traced bool, clk clock, outDir string) (workloadResult, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	if !traced {
		m, err := measure(w, cfg, clk, nil)
		if err != nil {
			return workloadResult{}, err
		}
		return endToEndResult(w, m), nil
	}
	cfg.windows, cfg.setUps = 1, 1
	ref, err := measure(w, cfg, clk, nil)
	if err != nil {
		return workloadResult{}, fmt.Errorf("reference window: %w", err)
	}
	tr := newTracer(clk)
	m, err := measure(w, cfg, clk, tr)
	if err != nil {
		return workloadResult{}, fmt.Errorf("traced window: %w", err)
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), tr.file(w.Name, cfg.seed)); err != nil {
		return workloadResult{}, err
	}
	probes, err := runProbes(clk, w.chunk, cfg.window/probeSliceShare)
	if err != nil {
		return workloadResult{}, fmt.Errorf("probes: %w", err)
	}
	return layerResult(w, ref, m, tr, probes), nil
}

func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two result files: baseline.json candidate.json")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	base, err := readSet(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cand, err := readSet(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if compare(stdout, spec, base, cand) {
		fmt.Fprintln(stderr, "benchmark: at least one row is worse than its bound allows")
		return 1
	}
	return 0
}
