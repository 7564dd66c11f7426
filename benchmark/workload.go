package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/timing"
)

// runConfig is the shape of one measurement. main derives it from
// -seconds; the tests shrink it.
type runConfig struct {
	seed    uint64
	window  time.Duration // length of one timed window
	windows int           // timed windows, each on a chain of its own and read in slices
	warmup  time.Duration // untimed, before each window: tickets seeded, caches hot
	setUps  int           // times each window's chain is set up; all but the last are torn down unused
	clients int           // hs generator goroutines
}

// hsClients is min(nproc, 4): generator goroutines never outnumber the
// cores that also have to run the chain.
func hsClients() int { return min(runtime.GOMAXPROCS(0), 4) }

// writeSampleEvery thins the bulk source's timing of its own Write
// calls to two clock reads per four chunks.
const writeSampleEvery = 4

// deliverySampleEvery thins the traced bulk run's chunk-delivery
// samples (Write call to verified at the sink) the same way.
const deliverySampleEvery = 16

// sentRing holds the send times of sampled chunks still in flight. The
// chain buffers a few MiB, at most some 8k chunks of 512 B, so 4096
// sampled slots are never lapped.
const sentRing = 4096

// latencySamplesCap is the preallocated room for one window's latency
// samples: rr_http takes some 35k a second, the bulk source 50k.
const latencySamplesCap = 1 << 18

// An operation is charged to the phase it completes in.
const (
	phaseWarmup = iota
	phaseTimed
	phaseAfter
	nPhases
)

// generator drives one workload through one chain, closed loop: a
// session is dialled after its predecessor closed, a chunk is written
// when backpressure lets it, a request is sent after the last response.
type generator struct {
	ch  *chain
	cfg runConfig
	pat pattern

	epoch time.Time
	phase atomic.Int32
	stop  atomic.Bool
	wg    sync.WaitGroup

	nextOp  atomic.Uint64
	ops     [nPhases]atomic.Int64
	failed  [nPhases]atomic.Int64
	resumed atomic.Int64 // hs: ResumedPrimary+ResumedHops of sessions completed in the timed phase

	latMu    sync.Mutex
	lat      []int64 // ns, timed phase: the client's blocking call (establish, Write, round trip)
	delivery []int64 // ns, timed phase of a traced bulk run: Write call to verified at the sink

	errMu    sync.Mutex
	firstErr error

	// bulk and rr run inside one session, established during set-up.
	sess     *core.Session
	ref      opRef
	sent     [sentRing]atomic.Int64
	written  atomic.Int64 // bulk: bytes the source wrote
	verified atomic.Int64 // bulk: bytes the sink compared equal
	sinkDone chan struct{}
}

// now is nanoseconds since the epoch, which in the traced run is the
// tracer's, so a generator timestamp is also a span timestamp.
func (g *generator) now() int64 { return int64(g.ch.clk.Now().Sub(g.epoch)) }

func (g *generator) fail(err error) {
	g.failed[g.phase.Load()].Add(1)
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

// done counts one completed operation and keeps its latency.
func (g *generator) done(latency int64) {
	ph := g.phase.Load()
	g.ops[ph].Add(1)
	g.sample(&g.lat, ph, latency)
}

func (g *generator) sample(into *[]int64, ph int32, ns int64) {
	if ph != phaseTimed {
		return
	}
	g.latMu.Lock()
	*into = append(*into, ns)
	g.latMu.Unlock()
}

// start launches the generator goroutines for the chain's workload.
func (g *generator) start() {
	switch g.ch.w.kind {
	case kindHS:
		for i := 0; i < g.cfg.clients; i++ {
			g.wg.Add(1)
			go g.hsClient()
		}
	case kindBulk:
		g.wg.Add(1)
		go g.bulkSource()
	case kindRR:
		g.wg.Add(1)
		go g.rrClient()
	}
}

// finish stops the generators and waits for them and, for bulk, for
// the sink to have drained what was in flight.
func (g *generator) finish() {
	g.stop.Store(true)
	g.wg.Wait()
	if g.sinkDone != nil {
		select {
		case <-g.sinkDone:
		case <-time.After(10 * time.Second):
			g.fail(errors.New("sink did not see the session close"))
		}
	}
}

// discard tears down a chain that was set up and never driven.
func (g *generator) discard() error {
	var err error
	if g.sess != nil {
		err = g.sess.Close()
	}
	g.finish()
	if cerr := g.ch.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = g.firstErr
	}
	return err
}

// hsClient runs sessions back to back: dial, establish, echo, close.
func (g *generator) hsClient() {
	defer g.wg.Done()
	w, tr := g.ch.w, g.ch.tr
	var ticket *core.ChainTicket
	var onTicket func(*core.ChainTicket)
	if w.resumed {
		onTicket = func(ct *core.ChainTicket) { ticket = ct }
	}
	var buf *spanBuf
	if tr != nil {
		buf = tr.get()
		defer tr.put(buf)
	}
	echo := make([]byte, w.chunk)
	for !g.stop.Load() {
		op := g.nextOp.Add(1)
		redeem := ticket
		var opStart int64
		var ref *opRef
		if tr != nil {
			// A ref of the session's own: the hosts' handlers read it
			// when they finish, after this goroutine has moved on.
			ref = new(opRef)
			ref.op.Store(op)
			ref.root.Store(tr.id())
			opStart = tr.now()
		}
		establish, st, err := g.hsSession(buf, ref, redeem, onTicket, g.pat.at(int64(op)*int64(w.chunk), w.chunk), echo)
		if tr != nil {
			tr.record(buf, lOp, ref.root.Load(), 0, op, opStart, tr.now())
		}
		if redeem != nil {
			// Redeemed once, never again: retire its master secrets.
			redeem.Wipe()
		}
		if err != nil {
			g.fail(fmt.Errorf("session %d: %w", op, err))
			continue
		}
		if g.phase.Load() == phaseTimed {
			g.resumed.Add(st.ResumedPrimary + st.ResumedHops)
		}
		g.done(establish)
	}
	if ticket != nil {
		ticket.Wipe()
	}
}

// hsSession is one complete client session. It returns the
// client-observed establishment time: core.Dial call to return.
func (g *generator) hsSession(buf *spanBuf, ref *opRef, redeem *core.ChainTicket, onTicket func(*core.ChainTicket),
	payload, echo []byte) (int64, core.SessionStats, error) {

	ch, tr := g.ch, g.ch.tr
	var sw *timing.Stopwatch
	if tr != nil {
		sw = new(timing.Stopwatch)
	}
	conn, err := ch.dialMB(buf, ref)
	if err != nil {
		return 0, core.SessionStats{}, fmt.Errorf("dial: %w", err)
	}
	cfg := ch.clientConfig(redeem, onTicket, sw)
	start := g.now()
	sess, err := core.Dial(conn, cfg)
	end := g.now()
	if tr != nil {
		op, root := ref.resolve()
		tr.record(buf, lCoreDial, tr.id(), root, op, start, end)
		if tr.active.Load() {
			ch.compute.client.Add(int64(sw.Total()))
		}
	}
	if err != nil {
		conn.Close()
		return 0, core.SessionStats{}, fmt.Errorf("establish: %w", err)
	}
	err = g.hsExchange(sess, redeem != nil, payload, echo)
	st := sess.Stats()
	closeStart := g.now()
	cerr := sess.Close()
	if tr != nil {
		op, root := ref.resolve()
		tr.record(buf, lCoreClose, tr.id(), root, op, closeStart, g.now())
	}
	if err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return end - start, st, err
}

// hsExchange echoes the payload through the established session and
// checks what the session says about itself.
func (g *generator) hsExchange(sess *core.Session, offered bool, payload, echo []byte) error {
	if _, err := sess.Write(payload); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if _, err := io.ReadFull(sess, echo); err != nil {
		return fmt.Errorf("read echo: %w", err)
	}
	if !bytes.Equal(echo, payload) {
		return errors.New("echo differs from the payload sent")
	}
	mbs := sess.Middleboxes()
	if len(mbs) != 1 || mbs[0].Name != mbName {
		return fmt.Errorf("session lists middleboxes %+v, want exactly %s", mbs, mbName)
	}
	if g.ch.w.sgx && !offered && !mbs[0].Attested {
		return errors.New("full handshake through an enclave middlebox is not attested")
	}
	want := int64(0)
	if offered {
		want = 1
	}
	if st := sess.Stats(); st.ResumedPrimary != want || st.ResumedHops != want {
		return fmt.Errorf("resumed primary=%d hops=%d, want %d each (ticket offered: %v)",
			st.ResumedPrimary, st.ResumedHops, want, offered)
	}
	return nil
}

// echoBufs pools the origin's echo buffers, so that a fresh 16 KiB
// buffer per session says nothing about the chain in alloc_kb_per_op.
var echoBufs = sync.Pool{New: func() any { b := make([]byte, maxChunk); return &b }}

// serveEcho is the hs origin: everything read goes back.
func serveEcho(s *core.Session) error {
	bp := echoBufs.Get().(*[]byte)
	defer echoBufs.Put(bp)
	for {
		n, err := s.Read(*bp)
		if err != nil {
			return err
		}
		if _, err := s.Write((*bp)[:n]); err != nil {
			return err
		}
	}
}

// establish opens the one session the bulk and rr workloads run in.
func (g *generator) establish() error {
	conn, err := g.ch.dialMB(nil, &g.ref)
	if err != nil {
		return err
	}
	sess, err := core.Dial(conn, g.ch.clientConfig(nil, nil, nil))
	if err != nil {
		conn.Close()
		return err
	}
	if mbs := sess.Middleboxes(); len(mbs) != 1 || mbs[0].Name != mbName || mbs[0].Attested != g.ch.w.sgx {
		sess.Close()
		return fmt.Errorf("session lists middleboxes %+v, want exactly %s (attested %v)", mbs, mbName, g.ch.w.sgx)
	}
	g.sess = sess
	return nil
}

// bulkSource writes the pattern, chunk by chunk, for as long as
// backpressure lets it. The latency it samples is that of its own
// blocking call, Session.Write.
func (g *generator) bulkSource() {
	defer g.wg.Done()
	chunk, tr := g.ch.w.chunk, g.ch.tr
	var buf *spanBuf
	if tr != nil {
		buf = tr.get()
		defer tr.put(buf)
	}
	var off int64
	for i := uint64(0); !g.stop.Load(); i++ {
		timed := tr != nil || i%writeSampleEvery == 0
		var start int64
		if timed {
			start = g.now()
		}
		if tr != nil {
			g.ref.op.Store(i + 1)
			g.ref.root.Store(tr.id())
			if i%deliverySampleEvery == 0 {
				g.sent[(i/deliverySampleEvery)%sentRing].Store(start)
			}
		}
		_, err := g.sess.Write(g.pat.at(off, chunk))
		if timed {
			end := g.now()
			if i%writeSampleEvery == 0 {
				g.sample(&g.lat, g.phase.Load(), end-start)
			}
			if tr != nil {
				tr.record(buf, lCoreWrite, g.ref.root.Load(), 0, i+1, start, end)
			}
		}
		if err != nil {
			g.fail(fmt.Errorf("chunk %d: write: %w", i, err))
			break
		}
		off += int64(chunk)
		g.written.Store(off)
	}
	if err := g.sess.Close(); err != nil {
		g.fail(fmt.Errorf("close: %w", err))
	}
}

// serveSink is the bulk origin: every byte is compared with the
// pattern at its stream offset, and each completed chunk is one op.
func (g *generator) serveSink(s *core.Session) error {
	defer close(g.sinkDone)
	chunk, tr := int64(g.ch.w.chunk), g.ch.tr
	var sbuf *spanBuf
	if tr != nil {
		sbuf = tr.get()
		defer tr.put(sbuf)
	}
	buf := make([]byte, 64<<10)
	var pos int64
	for {
		var start int64
		if tr != nil {
			start = tr.now()
		}
		n, err := s.Read(buf)
		if tr != nil {
			tr.record(sbuf, lCoreRead, tr.id(), 0, uint64(pos/chunk)+1, start, tr.now())
		}
		for got := buf[:n]; len(got) > 0; {
			piece := min(len(got), maxChunk)
			if !bytes.Equal(got[:piece], g.pat.at(pos, piece)) {
				err := fmt.Errorf("sink: bytes at stream offset %d differ from the pattern", pos)
				g.fail(err)
				return err
			}
			before := pos / chunk
			pos += int64(piece)
			got = got[piece:]
			ph := g.phase.Load()
			g.ops[ph].Add(pos/chunk - before)
			if tr == nil {
				continue
			}
			for k := before; k < pos/chunk; k++ {
				if k%deliverySampleEvery == 0 {
					g.sample(&g.delivery, ph, g.now()-g.sent[(k/deliverySampleEvery)%sentRing].Load())
				}
			}
		}
		g.verified.Store(pos)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// rrClient issues one GET at a time over the keep-alive connection and
// verifies each response.
func (g *generator) rrClient() {
	defer g.wg.Done()
	chunk, tr := g.ch.w.chunk, g.ch.tr
	var buf *spanBuf
	if tr != nil {
		buf = tr.get()
		defer tr.put(buf)
	}
	client := httpx.NewClient(g.sess)
	for i := uint64(0); !g.stop.Load(); i++ {
		var tstart int64
		if tr != nil {
			g.ref.op.Store(i + 1)
			g.ref.root.Store(tr.id())
			tstart = tr.now()
		}
		start := g.now()
		resp, err := client.Do(&httpx.Request{Method: "GET", Path: "/obj/" + strconv.FormatUint(i, 10), Host: originName})
		if err == nil {
			err = checkResponse(resp, g.pat.at(int64(i)*int64(chunk), chunk))
		}
		rtt := g.now() - start
		if tr != nil {
			tr.record(buf, lOp, g.ref.root.Load(), 0, i+1, tstart, tr.now())
		}
		if err != nil {
			g.fail(fmt.Errorf("request %d: %w", i, err))
			break
		}
		g.done(rtt)
	}
	if err := g.sess.Close(); err != nil {
		g.fail(fmt.Errorf("close: %w", err))
	}
}

func checkResponse(resp *httpx.Response, body []byte) error {
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(resp.Body, body) {
		return errors.New("response body differs from the pattern")
	}
	if via := resp.Header.Get("X-Via-Seen"); via != viaValue {
		return fmt.Errorf("origin saw Via %q, want the middlebox's %q", via, viaValue)
	}
	return nil
}

// serveHTTP is the rr origin: the body is the pattern at the offset
// the path names, and the Via header the middlebox inserted is echoed.
func (g *generator) serveHTTP(s *core.Session) error {
	chunk := int64(g.ch.w.chunk)
	return httpx.Serve(s, func(req *httpx.Request) *httpx.Response {
		i, err := strconv.ParseInt(strings.TrimPrefix(req.Path, "/obj/"), 10, 64)
		if err != nil {
			return &httpx.Response{StatusCode: 404}
		}
		return &httpx.Response{
			StatusCode: 200,
			Header:     httpx.Header{"X-Via-Seen": req.Header.Get("Via")},
			Body:       g.pat.at(i*chunk, int(chunk)),
		}
	})
}

// edge is what is read at a window boundary, and only there.
type edge struct {
	at    int64         // ns since the generator's epoch
	cpu   time.Duration // process user+sys
	alloc uint64        // MemStats.TotalAlloc
	stats chainStats
}

func (g *generator) edge() edge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return edge{
		at:    g.now(),
		cpu:   cpuTime(),
		alloc: ms.TotalAlloc,
		stats: g.ch.stats(),
	}
}

// sliceLen is how finely a timed window is cut: ops, CPU and the
// latency sample count are read every sliceLen, and every end-to-end
// metric but setup_s is taken over the run's slices. Long enough for 160
// full handshakes or 6000 round trips, short enough that a run has 150
// of them and a neighbour's burst of CPU spoils some, not all.
const sliceLen = 100 * time.Millisecond

// sliceResult is one slice of a timed window.
type sliceResult struct {
	Seconds float64
	Ops     int64
	CPUus   float64 // process user+sys over the slice
	P50ns   int64   // median of the latency samples taken in the slice, 0 if none
}

// mark is what is read at a slice boundary.
type mark struct {
	at, ops int64
	samples int // latency samples taken so far
	cpu     time.Duration
}

func (g *generator) mark() mark {
	g.latMu.Lock()
	n := len(g.lat)
	g.latMu.Unlock()
	return mark{at: g.now(), ops: g.ops[phaseTimed].Load(), samples: n, cpu: cpuTime()}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepInSlices sleeps through a timed window, reading a mark every
// sliceLen.
func (g *generator) sleepInSlices(clk clock, window time.Duration) []mark {
	marks := []mark{g.mark()}
	for left := window; left > 0; left -= sliceLen {
		clk.Sleep(min(left, sliceLen))
		marks = append(marks, g.mark())
	}
	return marks
}

// slices turns a finished window's marks into slices.
func (g *generator) slices(marks []mark) []sliceResult {
	out := make([]sliceResult, 0, len(marks)-1)
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		out = append(out, sliceResult{
			Seconds: float64(b.at-a.at) / 1e9,
			Ops:     b.ops - a.ops,
			CPUus:   float64(b.cpu-a.cpu) / 1e3,
			P50ns:   percentile(sortedCopy(g.lat[a.samples:b.samples]), 50),
		})
	}
	return out
}

// windowResult is one timed window.
type windowResult struct {
	Slices    []sliceResult `json:"-"`
	Ops       int64         `json:"ops"`
	Failed    int64         `json:"failed"`
	Seconds   float64       `json:"seconds"`
	CPUus     float64       `json:"cpu_us"`
	AllocKiB  float64       `json:"alloc_kib"`
	Latencies []int64       `json:"-"` // ns, ascending
	// open and shut are the window's two edges.
	open, shut edge
}

// measurement is everything one run of one workload produced: a chain
// and a window per entry of windows, and what they add up to.
type measurement struct {
	windows  []windowResult
	setups   []float64 // seconds, every set-up of the run in order
	resumed  int64     // hs: ResumedPrimary+ResumedHops over the timed sessions
	peak     int       // highest mbHost.ActiveSessions seen at an edge or sample
	checks   []check
	leaked   int
	gcShare  float64
	delivery []int64 // ns, ascending; traced bulk run
	// the chains' own counters, for the traced run's layer metrics
	compute   [3]int64 // client, mb, server ns
	chainHits int64
	stekCalls int64
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// peakSampleEvery is how often the traced window samples the middlebox
// host's active-session gauge between edges. Snapshot is not free (it
// sorts the relay pool's latency reservoir), hence not more often.
const peakSampleEvery = 50 * time.Millisecond

// measure runs the workload's timed windows, each on a chain set up
// for it: set-up (timed, cfg.setUps setup_s samples), warm-up, window,
// teardown, checks. A window per chain, because how fast one
// long-lived session or one pair of listeners runs is partly drawn at
// set-up — which goroutines share a core, how the kernel hashed the
// ports — and stays drawn: five windows on one chain agree with each
// other and not with the next run.
func measure(w workload, cfg runConfig, clk clock, tr *tracer) (*measurement, error) {
	baseline := runtime.NumGoroutine()
	m := &measurement{}
	for i := 0; i < cfg.windows; i++ {
		var g *generator
		for k := 0; k < cfg.setUps; k++ {
			if g != nil {
				if err := g.discard(); err != nil {
					return nil, fmt.Errorf("window %d: teardown of an unused chain: %w", i+1, err)
				}
			}
			start := clk.Now()
			var err error
			if g, err = setUp(w, cfg, clk, tr); err != nil {
				return nil, fmt.Errorf("window %d: set-up: %w", i+1, err)
			}
			m.setups = append(m.setups, clk.Now().Sub(start).Seconds())
		}
		var win windowResult

		g.start()
		clk.Sleep(cfg.warmup)
		win.open = g.edge()
		g.phase.Store(phaseTimed)
		m.peak = max(m.peak, win.open.stats.mbHost.ActiveSessions)
		var marks []mark
		if tr == nil {
			marks = g.sleepInSlices(clk, cfg.window)
		} else {
			tr.open(max(g.nextOp.Load(), g.ref.op.Load()))
			for left := cfg.window; left > 0; left -= peakSampleEvery {
				clk.Sleep(min(left, peakSampleEvery))
				m.peak = max(m.peak, g.ch.mbHost.Snapshot().ActiveSessions)
			}
			tr.close()
		}
		win.shut = g.edge()
		g.phase.Store(phaseAfter)
		m.peak = max(m.peak, win.shut.stats.mbHost.ActiveSessions)

		g.finish()
		final := g.ch.stats()
		closeErr := g.ch.close()

		win.Ops, win.Failed = g.ops[phaseTimed].Load(), g.failed[phaseTimed].Load()
		win.Seconds = float64(win.shut.at-win.open.at) / 1e9
		win.CPUus = float64(win.shut.cpu-win.open.cpu) / 1e3
		win.AllocKiB = float64(win.shut.alloc-win.open.alloc) / 1024
		win.Latencies = sortedCopy(g.lat)
		if marks != nil {
			win.Slices = g.slices(marks)
		}
		m.windows = append(m.windows, win)
		m.resumed += g.resumed.Load()
		m.delivery = append(m.delivery, g.delivery...)
		m.compute[0] += g.ch.compute.client.Load()
		m.compute[1] += g.ch.compute.mb.Load()
		m.compute[2] += g.ch.compute.server.Load()
		if g.ch.cc != nil {
			m.chainHits += g.ch.cc.hits.Load()
		}
		for _, k := range g.ch.steks {
			m.stekCalls += k.calls.Load()
		}
		m.merge(g.checks(final, closeErr))
	}
	m.delivery = sortedCopy(m.delivery)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.gcShare = ms.GCCPUFraction
	m.leaked = leakedGoroutines(baseline)
	m.merge([]check{{Name: "no_goroutines_leaked", OK: m.leaked == 0, Detail: fmt.Sprintf("leaked=%d", m.leaked)}})
	return m, nil
}

// merge folds one window's checks into the run's: a check holds if it
// held in every window, and keeps the detail of the first that failed.
func (m *measurement) merge(checks []check) {
next:
	for _, c := range checks {
		for i := range m.checks {
			if m.checks[i].Name == c.Name {
				if m.checks[i].OK && !c.OK {
					m.checks[i] = c
				}
				continue next
			}
		}
		m.checks = append(m.checks, c)
	}
}

// setUp builds the chain and, for the workloads that run inside one
// session, establishes it. It returns once the keyshare pool is full:
// what the daemons do before they can serve at speed is set-up, not
// the window's problem.
func setUp(w workload, cfg runConfig, clk clock, tr *tracer) (*generator, error) {
	g := &generator{cfg: cfg, pat: newPattern(cfg.seed), epoch: clk.Now()}
	// Room for a window's samples up front: growing the slice inside
	// the window would be the generator's allocation, charged to the
	// chain in alloc_kb_per_op — and on bulk_16k_tcp, where the chain
	// allocates next to nothing, most of it.
	g.lat = make([]int64, 0, latencySamplesCap)
	if tr != nil {
		g.epoch = tr.epoch
		g.delivery = make([]int64, 0, latencySamplesCap)
	}
	serve := serveEcho
	switch w.kind {
	case kindBulk:
		g.sinkDone = make(chan struct{})
		serve = g.serveSink
	case kindRR:
		serve = g.serveHTTP
	}
	ch, err := buildChain(w, clk, tr, serve)
	if err != nil {
		return nil, err
	}
	g.ch = ch
	if w.kind != kindHS {
		if err := g.establish(); err != nil {
			ch.close() //nolint:errcheck // the establish error is the one to report
			return nil, fmt.Errorf("establish: %w", err)
		}
	}
	for ch.ksPool.Stats().Ready < ch.ksPool.Stats().Capacity {
		clk.Sleep(100 * time.Microsecond)
	}
	return g, nil
}

// leakedGoroutines waits for the goroutine count to come back to the
// pre-workload baseline and returns how many are still over it after
// two seconds.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// checks are the correctness checks made once per chain; the per-op
// ones (payload equality, middlebox list, resumption counters, Via)
// fail the op they belong to and arrive here as firstErr.
func (g *generator) checks(final chainStats, closeErr error) []check {
	var failed, sessions int64
	for i := range g.failed {
		failed += g.failed[i].Load()
		sessions += g.ops[i].Load()
	}
	if g.ch.w.kind != kindHS {
		sessions = 1
	}
	overloaded := final.mbHost.Overloaded + final.srvHost.Overloaded
	out := []check{
		{Name: "ops_succeed", OK: failed == 0, Detail: errDetail(g.firstErr)},
		{Name: "records_rekeyed", OK: final.mb.RecordsRekeyed > 0,
			Detail: fmt.Sprintf("RecordsRekeyed=%d", final.mb.RecordsRekeyed)},
		{Name: "mbtls_sessions", OK: failed > 0 || final.mb.MbTLSSessions == sessions,
			Detail: fmt.Sprintf("MbTLSSessions=%d, client sessions=%d", final.mb.MbTLSSessions, sessions)},
		{Name: "not_overloaded", OK: overloaded == 0, Detail: fmt.Sprintf("Overloaded=%d", overloaded)},
		{Name: "teardown_clean", OK: closeErr == nil, Detail: errDetail(closeErr)},
	}
	if g.ch.w.kind == kindBulk {
		out = append(out, check{Name: "sink_got_everything", OK: g.verified.Load() == g.written.Load() && g.written.Load() > 0,
			Detail: fmt.Sprintf("written=%d verified=%d", g.written.Load(), g.verified.Load())})
	}
	return out
}

func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
