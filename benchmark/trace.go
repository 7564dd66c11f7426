package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer identifies one instrumented boundary. Spans carry it as a small
// integer so the hot path never hashes a string.
type layer uint8

const (
	lOp layer = iota // one whole operation, the root of its spans
	lTransportDial
	lTransportDialNext
	lTransportWrite
	lTransportRead
	lCoreDial
	lCoreAccept
	lCoreMBSession
	lCoreClose
	lCoreWrite
	lCoreRead
	lKeyShare
	lChainVerify
	lProcess
	nLayers
)

var layerNames = [nLayers]string{
	lOp:                "op",
	lTransportDial:     "transport.dial",
	lTransportDialNext: "transport.dial_next",
	lTransportWrite:    "transport.write",
	lTransportRead:     "transport.read",
	lCoreDial:          "core.dial",
	lCoreAccept:        "core.accept",
	lCoreMBSession:     "core.mb_session",
	lCoreClose:         "core.close",
	lCoreWrite:         "core.write",
	lCoreRead:          "core.read",
	lKeyShare:          "hsfast.keyshare",
	lChainVerify:       "hsfast.chainverify",
	lProcess:           "mbapps.process",
}

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the span that caused it (0 for a
// root); Op is the ordinal of the session, chunk or round trip, shared
// by every span that operation caused on any goroutine.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Layer  layer  `json:"-"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBufCap is each buffer's preallocated capacity. A full buffer
// drops (and counts) further spans instead of growing, so tracing never
// allocates inside the window.
const spanBufCap = 4096

// traceOpCap bounds the trace file: spans are kept for the first
// traceOpCap operations of the window, whole trees, and only counted
// after that. The layer totals still cover the whole window.
const traceOpCap = 512

// spanBuf is one owner's span storage: a generator goroutine, a
// session handler, or one side of a wrapped connection. The mutex is
// uncontended in practice; it exists because a connection's reader and
// writer are different goroutines.
type spanBuf struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

// layerTotal accumulates every call into a layer over the window,
// whether or not its span was kept.
type layerTotal struct {
	count atomic.Int64
	ns    atomic.Int64
}

// tracer collects one traced window. It records only while active, so
// the warm-up before the window leaves no trace.
type tracer struct {
	clk    clock
	epoch  time.Time
	active atomic.Bool
	// opBase is the ordinal of the last operation begun before the
	// window opened; spans are kept for the traceOpCap after it.
	opBase atomic.Uint64
	nextID atomic.Uint64
	totals [nLayers]layerTotal
	// The transport counts spans do not carry: WriteBuffers calls (a
	// subset of the transport.write spans) and bytes handed to a write,
	// each hop counted once.
	writevs   atomic.Int64
	wireBytes atomic.Int64

	mu   sync.Mutex
	all  []*spanBuf
	free []*spanBuf
}

func newTracer(clk clock) *tracer {
	return &tracer{clk: clk, epoch: clk.Now()}
}

// now is the tracer's timestamp: nanoseconds since its epoch.
func (t *tracer) now() int64 { return int64(t.clk.Now().Sub(t.epoch)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// get lends a span buffer; put returns it for the next owner. Spans
// stay in the buffer across owners.
func (t *tracer) get() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		return b
	}
	b := &spanBuf{spans: make([]span, 0, spanBufCap)}
	t.all = append(t.all, b)
	return b
}

func (t *tracer) put(b *spanBuf) {
	t.mu.Lock()
	t.free = append(t.free, b)
	t.mu.Unlock()
}

// record adds one finished span to the layer's totals and, for the
// first traceOpCap operations, to the buffer. The decorators have no
// context that could carry an ordinal: they pass op 0 and a nil buffer,
// and are totalled without a span.
func (t *tracer) record(b *spanBuf, l layer, id, parent, op uint64, start, end int64) {
	if !t.active.Load() {
		return
	}
	t.totals[l].count.Add(1)
	t.totals[l].ns.Add(end - start)
	if base := t.opBase.Load(); op <= base || op > base+traceOpCap {
		return
	}
	b.mu.Lock()
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Layer: l, Start: start, End: end})
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// open starts the traced window; lastOp is the ordinal of the newest
// operation already under way.
func (t *tracer) open(lastOp uint64) {
	t.opBase.Store(lastOp)
	t.active.Store(true)
}

func (t *tracer) close() { t.active.Store(false) }

// wrote counts one transport write of n bytes.
func (t *tracer) wrote(n int64, vectored bool) {
	if !t.active.Load() {
		return
	}
	t.wireBytes.Add(n)
	if vectored {
		t.writevs.Add(1)
	}
}

// count is the calls into l over the window; meanNS their mean
// duration (0 with no calls).
func (t *tracer) count(l layer) float64 { return float64(t.totals[l].count.Load()) }

func (t *tracer) meanNS(l layer) float64 {
	return ratio(float64(t.totals[l].ns.Load()), t.count(l))
}

// spans gathers every kept span, ordered by start, and the number
// dropped for lack of buffer space.
func (t *tracer) spans() (out []span, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.all {
		b.mu.Lock()
		out = append(out, b.spans...)
		dropped += b.dropped
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, dropped
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Children may overlap one
// another (a client's core.dial and the middlebox session it caused run
// concurrently), so the covered part is the union of the children's
// intervals, clipped to the parent.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf is one layer's row in the trace file.
type layerSelf struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// traceFile is what a traced workload leaves in out/trace-<name>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	OpCap    int         `json:"op_cap"`
	Dropped  int         `json:"dropped"`
	Layers   []layerSelf `json:"layers"`
	Spans    []span      `json:"spans"`
}

// file assembles the trace file: the kept spans and, per layer, how
// much of their time was the layer's own.
func (t *tracer) file(workload string, seed uint64) traceFile {
	spans, dropped := t.spans()
	self := selfTimes(spans)
	rows := make([]layerSelf, nLayers)
	for i := range rows {
		rows[i].Name = layerNames[i]
	}
	for i := range spans {
		s := &spans[i]
		s.Name = layerNames[s.Layer]
		r := &rows[s.Layer]
		r.Spans++
		r.TotalNS += s.End - s.Start
		r.SelfNS += self[s.ID]
	}
	kept := rows[:0]
	for _, r := range rows {
		if r.Spans > 0 {
			kept = append(kept, r)
		}
	}
	return traceFile{Workload: workload, Seed: seed, OpCap: traceOpCap, Dropped: dropped, Layers: kept, Spans: spans}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
