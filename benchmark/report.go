package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
)

// noRealLink is stated on every result: the "network" in these numbers
// is memory or the loopback interface.
const noRealLink = "netsim is in-memory and tcp is the host loopback: no real link is crossed"

// envStamp says where and how a result was taken, so that two results
// can be told apart by machine, parameters or code.
type envStamp struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	OS            string  `json:"os"`
	Arch          string  `json:"arch"`
	Commit        string  `json:"commit"`
	Dirty         bool    `json:"dirty"`
	Seed          uint64  `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	Windows       int     `json:"windows"`
	SliceSeconds  float64 `json:"slice_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	SetUps        int     `json:"set_ups"`
	HSClients     int     `json:"hs_clients"`
	Loop          string  `json:"loop"`
	Link          string  `json:"link"`
	Traced        bool    `json:"traced"`
}

func stamp(cfg runConfig, traced bool) envStamp {
	e := envStamp{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		Commit:        "unknown",
		Seed:          cfg.seed,
		WindowSeconds: cfg.window.Seconds(),
		Windows:       cfg.windows,
		SliceSeconds:  min(sliceLen, cfg.window).Seconds(),
		WarmupSeconds: cfg.warmup.Seconds(),
		SetUps:        cfg.windows * cfg.setUps,
		HSClients:     cfg.clients,
		Loop:          fmt.Sprintf("closed: hs_* %d clients each dialling after its last session closed, bulk_* one stream under backpressure, rr_http one request at a time", cfg.clients),
		Link:          noRealLink,
		Traced:        traced,
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return e
}

// tail is the highest percentile of a run's latency samples that has
// at least minBeyond samples beyond it.
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueUS    float64 `json:"value_us"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Procs     int     `json:"gomaxprocs"` // what the workload ran under; the env stamp has the process's
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FailShare float64 `json:"fail_share"`
	Checks    []check `json:"checks"`
	// EndToEnd is present on an untraced run, PerLayer on a traced one.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	// Aliases are the end-to-end metrics under the names a user of this
	// kind of workload would use: sessions_per_s, goodput_gbps, ...
	Aliases map[string]summary `json:"aliases,omitempty"`
	// AllocKBPerOp is MemStats.TotalAlloc over the window ÷ ops. It is
	// measured untraced but not gated: see bench.alloc_kb_per_op.
	AllocKBPerOp *summary           `json:"alloc_kb_per_op,omitempty"`
	Tail         *tail              `json:"tail,omitempty"`
	Windows      []windowResult     `json:"windows,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// resultFile is out/result.json (untraced) or out/layers.json (traced).
type resultFile struct {
	Env       envStamp         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// alias renames an end-to-end metric for one kind of workload.
type alias struct {
	name, unit, base string
	on               kind
	scale            func(w workload) float64
}

func constant(f float64) func(workload) float64 { return func(workload) float64 { return f } }

var aliases = []alias{
	{"sessions_per_s", "1/s", "ops_per_s", kindHS, constant(1)},
	{"establish_p50_ms", "ms", "latency_p50_us", kindHS, constant(1e-3)},
	{"goodput_gbps", "Gbit/s", "ops_per_s", kindBulk, func(w workload) float64 { return float64(w.chunk) * 8 / 1e9 }},
	{"write_p50_us", "us", "latency_p50_us", kindBulk, constant(1)},
	{"rtt_p50_us", "us", "latency_p50_us", kindRR, constant(1)},
}

func scaled(s summary, f float64) summary {
	out := summary{Value: s.Value * f, Min: s.Min * f, Max: s.Max * f}
	for _, v := range s.Windows {
		out.Windows = append(out.Windows, v*f)
	}
	return out
}

// outcome folds a measurement's ops and checks into a result.
func (r *workloadResult) outcome(ms ...*measurement) {
	r.Correct = true
	for _, m := range ms {
		for _, w := range m.windows {
			r.Attempted += w.Ops + w.Failed
			r.Failed += w.Failed
		}
		for _, c := range m.checks {
			r.Correct = r.Correct && c.OK
		}
		r.Checks = append(r.Checks, m.checks...)
	}
	r.FailShare = ratio(float64(r.Failed), float64(r.Attempted))
	r.Correct = r.Correct && r.Failed == 0 && r.Attempted > 0
}

// goodShare picks the slices an end-to-end metric is read from: a rate
// is the run's 90th percentile slice, a latency or a cost its 10th.
// Whatever else the host runs only ever takes time away, so a run's
// slower slices say what the neighbours did and its faster ones what the
// chain can do; the decile, not the best slice, so that a tenth of the
// slices and not one has to agree.
const goodShare = 10

// endToEndResult reduces an untraced measurement to the end-to-end
// metrics: each but setup_s per slice first, then the good decile over
// the run's slices.
func endToEndResult(w workload, m *measurement) workloadResult {
	r := workloadResult{Name: w.Name, Why: w.Why, Procs: runtime.GOMAXPROCS(0), Windows: m.windows}
	r.outcome(m)
	var rate, latency, cpu [][]float64 // per window, per slice
	var alloc []float64
	var all []int64
	for _, win := range m.windows {
		var rs, ls, cs []float64
		for _, s := range win.Slices {
			rs = append(rs, ratio(float64(s.Ops), s.Seconds))
			if s.Ops > 0 {
				cs = append(cs, s.CPUus/float64(s.Ops))
			}
			if s.P50ns > 0 {
				ls = append(ls, float64(s.P50ns)/1e3)
			}
		}
		rate, latency, cpu = append(rate, rs), append(latency, ls), append(cpu, cs)
		alloc = append(alloc, ratio(win.AllocKiB, float64(win.Ops)))
		all = append(all, win.Latencies...)
	}
	allocs := summarize(alloc)
	r.AllocKBPerOp = &allocs
	r.EndToEnd = map[string]summary{
		"setup_s":        summarize(m.setups),
		"ops_per_s":      summarizeSlices(rate, 100-goodShare),
		"latency_p50_us": summarizeSlices(latency, goodShare),
		"cpu_us_per_op":  summarizeSlices(cpu, goodShare),
	}
	r.Aliases = map[string]summary{}
	for _, a := range aliases {
		if a.on&w.kind != 0 {
			r.Aliases[a.name] = scaled(r.EndToEnd[a.base], a.scale(w))
		}
	}
	all = sortedCopy(all)
	p := supportedTail(len(all))
	r.Tail = &tail{Percentile: p, ValueUS: float64(percentile(all, p)) / 1e3, Samples: len(all), Beyond: beyond(len(all), p)}
	return r
}

// layerResult reduces a traced measurement, the untraced reference
// window run just before it, and the probes to the per-layer metrics.
func layerResult(w workload, ref, m *measurement, tr *tracer, probes map[string]float64) workloadResult {
	r := workloadResult{Name: w.Name, Why: w.Why, Procs: runtime.GOMAXPROCS(0), Windows: m.windows}
	r.outcome(ref, m)
	v := map[string]float64{}
	for name, val := range probes {
		v[name] = val
	}

	win := m.windows[0]
	ops := float64(win.Ops)
	a, b := win.open.stats, win.shut.stats
	seconds := win.Seconds
	rekeyed := float64(b.mb.RecordsRekeyed - a.mb.RecordsRekeyed)
	transitions := float64(b.transitions - a.transitions)
	us := func(l layer) float64 { return tr.meanNS(l) / 1e3 }

	switch w.kind {
	case kindHS:
		v["core.dial_us"] = us(lCoreDial)
		v["core.accept_us"] = us(lCoreAccept)
		v["core.mb_session_us"] = us(lCoreMBSession)
		v["core.close_us"] = us(lCoreClose)
		v["core.client_compute_us"] = ratio(float64(m.compute[0]), ops) / 1e3
		v["core.mb_compute_us"] = ratio(float64(m.compute[1]), ops) / 1e3
		v["core.server_compute_us"] = ratio(float64(m.compute[2]), ops) / 1e3
		v["core.hs_wait_us"] = v["core.dial_us"] - v["core.client_compute_us"]
		v["core.establish_p99_ms"] = float64(percentile(win.Latencies, 99)) / 1e6
		v["core.resumed_share"] = ratio(float64(m.resumed), 2*ops)
		v["hsfast.keyshare_ns"] = tr.meanNS(lKeyShare)
		v["hsfast.keyshare_calls_per_session"] = ratio(tr.count(lKeyShare), ops)
		served := float64(b.ks.Hits + b.ks.Misses - a.ks.Hits - a.ks.Misses)
		v["hsfast.keyshare_hit_share"] = ratio(float64(b.ks.Hits-a.ks.Hits), served)
		v["hsfast.chainverify_us"] = us(lChainVerify)
		v["hsfast.chainverify_calls_per_session"] = ratio(tr.count(lChainVerify), ops)
		v["hsfast.chainverify_hit_share"] = ratio(float64(m.chainHits), tr.count(lChainVerify))
		v["hsfast.stek_calls_per_session"] = ratio(float64(m.stekCalls), ops)
		v["enclave.transitions_per_session"] = ratio(transitions, ops)
		v["transport.dial_us"] = us(lTransportDial)
		v["transport.dial_next_us"] = us(lTransportDialNext)
	case kindBulk:
		v["core.chunk_delivery_p50_us"] = float64(percentile(m.delivery, 50)) / 1e3
		v["core.write_ns_per_chunk"] = tr.meanNS(lCoreWrite)
		v["core.read_ns_per_chunk"] = ratio(float64(tr.totals[lCoreRead].ns.Load()), ops)
	case kindRR:
		v["core.rtt_p99_us"] = float64(percentile(win.Latencies, 99)) / 1e3
		v["mbapps.process_ns_per_chunk"] = tr.meanNS(lProcess)
	}
	if w.kind != kindHS {
		v["core.records_per_chunk"] = ratio(rekeyed, ops)
		v["enclave.transitions_per_record"] = ratio(transitions, rekeyed)
	}

	v["core.pipeline_share"] = ratio(float64(b.relay.RecordsProcessed-a.relay.RecordsProcessed), rekeyed)
	v["core.relay_utilization"] = ratio(b.relayBusy-a.relayBusy, float64(b.at.Sub(a.at))*float64(b.relay.Workers))
	v["core.relay_submit_stalls"] = ratio(float64(b.relay.SubmitStalls-a.relay.SubmitStalls), seconds)
	v["core.relay_window_stalls"] = ratio(float64(b.relay.WindowStalls-a.relay.WindowStalls), seconds)
	v["core.relay_max_inflight"] = float64(b.relay.MaxInFlight)
	v["core.reseal_p50_us"] = float64(b.relay.ResealP50) / 1e3
	v["core.reseal_p99_us"] = float64(b.relay.ResealP99) / 1e3
	v["tls12.bufpool_hit_share"] = ratio(float64(b.buf.Hits-a.buf.Hits), float64(b.buf.Gets-a.buf.Gets))
	v["sessionhost.active_peak"] = float64(m.peak)
	v["sessionhost.overloaded"] = float64(b.mbHost.Overloaded + b.srvHost.Overloaded - a.mbHost.Overloaded - a.srvHost.Overloaded)
	v["sessionhost.failed"] = float64(b.mbHost.Failed + b.srvHost.Failed - a.mbHost.Failed - a.srvHost.Failed)
	writes := tr.count(lTransportWrite)
	v["transport.writes_per_op"] = ratio(writes, ops)
	v["transport.reads_per_op"] = ratio(tr.count(lTransportRead), ops)
	v["transport.wire_bytes_per_op"] = ratio(float64(tr.wireBytes.Load()), ops)
	v["transport.write_ns"] = tr.meanNS(lTransportWrite)
	v["transport.read_wait_ns"] = tr.meanNS(lTransportRead)
	v["transport.writev_share"] = ratio(float64(tr.writevs.Load()), writes)
	refRate := ratio(float64(ref.windows[0].Ops), ref.windows[0].Seconds)
	v["bench.trace_overhead_share"] = 1 - ratio(ratio(ops, seconds), refRate)
	v["bench.alloc_kb_per_op"] = ratio(ref.windows[0].AllocKiB, float64(ref.windows[0].Ops))
	v["bench.gc_cpu_share"] = m.gcShare
	v["bench.goroutines_leaked"] = float64(ref.leaked + m.leaked)
	r.PerLayer = v
	return r
}

// resultLine is the driver's contract: the last line of standard
// output, one JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders a result for the driver. It must carry every end-to-end
// metric (untraced) or every per-layer metric (traced) by name, so a
// per-layer metric the workload does not define reads 0 here, while the
// report and the result file leave it out.
func (r workloadResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			l.Metrics[d.Name] = metricValue{Value: r.PerLayer[d.Name], Unit: d.Unit}
		}
		return l
	}
	for _, d := range endToEnd {
		l.Metrics[d.Name] = metricValue{Value: r.EndToEnd[d.Name].Value, Unit: d.Unit}
	}
	return l
}

func printEnv(w io.Writer, e envStamp) {
	dirty := ""
	if e.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s%s seed=%d\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.OS, e.Arch, e.Commit, dirty, e.Seed)
	fmt.Fprintf(w, "run: %d window(s) of %.3gs in slices of %.3gs, each on its own chain after %.3gs warm-up; %d set-ups; traced=%v\n",
		e.Windows, e.WindowSeconds, e.SliceSeconds, e.WarmupSeconds, e.SetUps, e.Traced)
	if !e.Traced {
		fmt.Fprintf(w, "read: setup_s the median of the set-ups; a rate the %dth percentile of the run's slices, a latency or cost the %dth; min and max are single windows\n",
			100-goodShare, goodShare)
	}
	fmt.Fprintf(w, "loop: %s\n", e.Loop)
	fmt.Fprintf(w, "link: %s\n", e.Link)
}

// print writes one workload's metrics, each by name with its unit.
func (r workloadResult) print(w io.Writer, wl workload) {
	fmt.Fprintf(w, "\n== %s (GOMAXPROCS=%d) — %s\n", r.Name, r.Procs, r.Why)
	row := func(name, unit string, s summary) {
		fmt.Fprintf(w, "  %-28s %14.4f %-7s  min %.4f  max %.4f\n", name, s.Value, unit, s.Min, s.Max)
	}
	if r.EndToEnd != nil {
		for _, d := range endToEnd {
			row(d.Name, d.Unit, r.EndToEnd[d.Name])
		}
		for _, a := range aliases {
			if s, ok := r.Aliases[a.name]; ok {
				row("  = "+a.name, a.unit, s)
			}
		}
		row("alloc_kb_per_op (not gated)", "KiB", *r.AllocKBPerOp)
		fmt.Fprintf(w, "  %-28s %14.4f %-7s  p%g of %d samples, %d beyond (not gated)\n",
			"latency tail", r.Tail.ValueUS, "us", r.Tail.Percentile, r.Tail.Samples, r.Tail.Beyond)
	}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			if d.on&wl.kind != 0 {
				fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  %-28s %14.6f %-7s  %d failed of %d attempted\n", "fail_share", r.FailShare, "ratio", r.Failed, r.Attempted)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

func marshalLine(l resultLine) string {
	data, err := json.Marshal(l)
	if err != nil {
		// Only NaN or Inf can do this, and ratio() keeps both out.
		panic(err)
	}
	return string(data)
}
