package main

import "time"

// kind groups workloads by the shape of one operation.
type kind uint8

const (
	kindHS   kind = 1 << iota // op = one session: dial, establish, echo, close
	kindBulk                  // op = one chunk delivered to the sink
	kindRR                    // op = one HTTP round trip
	kindAll  = kindHS | kindBulk | kindRR
)

const (
	trNetsim = "netsim"
	trTCP    = "tcp"
)

// workload is one set of inputs the benchmark runs. The names are
// final: later issues cite them.
type workload struct {
	Name string
	Why  string
	kind kind
	// transport is trNetsim (in-memory pipes) or trTCP (tcpx over the
	// host loopback). Neither crosses a real link.
	transport string
	// sgx runs the middlebox in a simulated enclave at boundaryCost and
	// makes the client require and verify its quote.
	sgx bool
	// resumed makes each hs session redeem the chain ticket its
	// predecessor was reissued; otherwise none is offered.
	resumed bool
	// chunk is the application bytes of one op: the hs echo payload,
	// the bulk write size, the rr response body.
	chunk int
	// processor installs mbapps.NewHeaderInserter on the middlebox.
	processor bool
	// procs, when not 0, is the GOMAXPROCS the workload runs under, and so
	// the shards and relay workers the chain gets.
	procs int
}

// boundaryCost is the simulated cost of one enclave transition, the
// figure the repo's Fig. 7 experiment uses for an SGX ecall.
const boundaryCost = time.Microsecond

// viaValue is what the rr_http middlebox inserts and the origin echoes.
const viaValue = "1.1 mbtls-benchmark"

var workloads = []workload{
	{Name: "hs_full", kind: kindHS, transport: trNetsim, sgx: true, chunk: 4096,
		Why: "full chain handshake per session: asymmetric crypto, certificate and quote verification and key distribution do the work, the relay almost none"},
	{Name: "hs_resumed", kind: kindHS, transport: trNetsim, sgx: true, resumed: true, chunk: 4096,
		Why: "chain-ticket resumption bypasses every asymmetric operation, so admission, connection set-up, ticket crypto and teardown dominate"},
	{Name: "hs_resumed_tcp", kind: kindHS, transport: trTCP, sgx: true, resumed: true, chunk: 4096,
		Why: "hs_resumed over tcpx loopback with per-shard SO_REUSEPORT listeners: the gap to hs_resumed is transport/tcpx plus kernel"},
	{Name: "bulk_16k", kind: kindBulk, transport: trNetsim, chunk: 16 << 10,
		Why: "one stream of 16 KiB writes through the re-encrypting middlebox: AEAD and the relay pipeline do the work, handshake cost is zero"},
	{Name: "bulk_512_sgx", kind: kindBulk, transport: trNetsim, sgx: true, chunk: 512,
		Why: "512 B writes through the enclave data plane: per-record cost (framing, batching, hand-offs, enclave transitions) dominates, AEAD is minor"},
	{Name: "bulk_16k_tcp", kind: kindBulk, transport: trTCP, chunk: 16 << 10,
		Why: "bulk_16k over tcpx loopback: write parking, writev and pooled reads carry the bytes"},
	// One request at a time never has two goroutines runnable. On two
	// vCPUs of a shared host its round trip was mostly the cross-vCPU
	// wake-up, which is the hypervisor's and drifts by a tenth over tens
	// of minutes; on one core every hand-off is the program's own.
	{Name: "rr_http", kind: kindRR, transport: trNetsim, chunk: 1024, processor: true, procs: 1,
		Why: "one keep-alive HTTP connection on one core, one small record per turn in both directions, Processor on: hand-off latency shows here, not throughput"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number. BENCHMARK.json repeats these
// tables for the driver; TestSpecMatchesCode keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline value by which an end-to-end
	// metric may worsen before -compare calls it worse. Per-layer
	// metrics have none.
	Bound float64
	// on is the kinds of workload that define the metric. Where a
	// workload does not, the report omits it and the driver's result
	// line, which must carry every name, reads 0.
	on kind
}

// endToEnd are the metrics a user of the chain would see: setup_s the
// median of the run's set-ups, the others a decile of the run's slices
// (see goodShare). Every workload defines every one. The bounds are the
// widest the driver's contract allows: three times the widest spread ten
// runs of one workload showed (9.5 %, in a set that caught the shared box
// slowing by a tenth within three minutes) would be wider still. See
// README.md, Steadiness.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, on: kindAll},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, on: kindAll},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25, on: kindAll},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, on: kindAll},
}

// perLayer are the single-layer metrics of the traced run, named
// module.metric. They are not gated.
var perLayer = []metricDef{
	{Name: "core.dial_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.accept_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.mb_session_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.close_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.client_compute_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.mb_compute_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.server_compute_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.hs_wait_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "core.establish_p99_ms", Unit: "ms", Better: "lower", on: kindHS},
	{Name: "core.rtt_p99_us", Unit: "us", Better: "lower", on: kindRR},
	{Name: "core.resumed_share", Unit: "ratio", Better: "higher", on: kindHS},
	{Name: "core.chunk_delivery_p50_us", Unit: "us", Better: "lower", on: kindBulk},
	{Name: "core.write_ns_per_chunk", Unit: "ns", Better: "lower", on: kindBulk},
	{Name: "core.read_ns_per_chunk", Unit: "ns", Better: "lower", on: kindBulk},
	{Name: "core.reseal_ns_per_record", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "core.reseal_sgx_ns_per_record", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "core.pipeline_share", Unit: "ratio", Better: "higher", on: kindAll},
	{Name: "core.relay_utilization", Unit: "ratio", Better: "higher", on: kindAll},
	{Name: "core.relay_submit_stalls", Unit: "1/s", Better: "lower", on: kindAll},
	{Name: "core.relay_window_stalls", Unit: "1/s", Better: "lower", on: kindAll},
	{Name: "core.relay_max_inflight", Unit: "count", Better: "higher", on: kindAll},
	{Name: "core.reseal_p50_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "core.reseal_p99_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "core.records_per_chunk", Unit: "count", Better: "lower", on: kindBulk | kindRR},
	{Name: "tls12.seal_ns_per_record", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "tls12.open_ns_per_record", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "tls12.handshake_full_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "tls12.handshake_resumed_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "tls12.bufpool_hit_share", Unit: "ratio", Better: "higher", on: kindAll},
	{Name: "hsfast.keyshare_ns", Unit: "ns", Better: "lower", on: kindHS},
	{Name: "hsfast.keyshare_calls_per_session", Unit: "count", Better: "lower", on: kindHS},
	{Name: "hsfast.keyshare_hit_share", Unit: "ratio", Better: "higher", on: kindHS},
	{Name: "hsfast.chainverify_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "hsfast.chainverify_calls_per_session", Unit: "count", Better: "lower", on: kindHS},
	{Name: "hsfast.chainverify_hit_share", Unit: "ratio", Better: "higher", on: kindHS},
	{Name: "hsfast.stek_calls_per_session", Unit: "count", Better: "lower", on: kindHS},
	{Name: "enclave.transitions_per_record", Unit: "count", Better: "lower", on: kindBulk | kindRR},
	{Name: "enclave.transitions_per_session", Unit: "count", Better: "lower", on: kindHS},
	{Name: "enclave.enter_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "enclave.quote_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "enclave.verify_quote_us", Unit: "us", Better: "lower", on: kindAll},
	{Name: "sessionhost.admit_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "sessionhost.active_peak", Unit: "count", Better: "lower", on: kindAll},
	{Name: "sessionhost.overloaded", Unit: "count", Better: "lower", on: kindAll},
	{Name: "sessionhost.failed", Unit: "count", Better: "lower", on: kindAll},
	{Name: "transport.dial_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "transport.dial_next_us", Unit: "us", Better: "lower", on: kindHS},
	{Name: "transport.writes_per_op", Unit: "count", Better: "lower", on: kindAll},
	{Name: "transport.reads_per_op", Unit: "count", Better: "lower", on: kindAll},
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: "lower", on: kindAll},
	{Name: "transport.write_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "transport.read_wait_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "transport.writev_share", Unit: "ratio", Better: "higher", on: kindAll},
	{Name: "transport.netsim_rtt_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "transport.tcp_rtt_ns", Unit: "ns", Better: "lower", on: kindAll},
	{Name: "mbapps.process_ns_per_chunk", Unit: "ns", Better: "lower", on: kindRR},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", on: kindAll},
	{Name: "bench.alloc_kb_per_op", Unit: "KiB", Better: "lower", on: kindAll},
	{Name: "bench.gc_cpu_share", Unit: "ratio", Better: "lower", on: kindAll},
	{Name: "bench.goroutines_leaked", Unit: "count", Better: "lower", on: kindAll},
}
