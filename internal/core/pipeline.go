// The middlebox relay's one data path (DESIGN.md §14). Per-record
// open/reseal is embarrassingly parallel once sequence numbers are
// assigned at intake: the open nonce is the arrival sequence and the
// seal nonce the commit sequence, both deterministic, so a batch's
// crypto can run on any worker while the relay keeps reading. Every
// batch is one job through the same three steps per direction:
//
//	reserve  claim the job's sequence ranges, in arrival order —
//	         arithmetic on the direction's commit gate
//	process  open/reseal against the reservation, lock-free — the
//	         job's one data-plane call
//	commit   release the resealed output, account stats, and fold
//	         proxysig digests in strict arrival order
//
// A pipelined job is reserved on the relay goroutine, processed by a
// RelayPool worker, and committed by the direction's commit goroutine,
// while the relay reads ahead. A job that must be ordered runs all
// three steps inline on the relay goroutine, after the jobs in flight
// have committed. The commit gate is the only holder of a direction's
// sequence positions, so a fault path abandons reserved-but-uncommitted
// sequences by assignment and seals an alert that still verifies at
// the peer.
package core

import (
	"context"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tls12"
)

const (
	// pipelineDepth bounds in-flight jobs per direction: the relay
	// blocks submitting once this many are uncommitted, which bounds
	// both memory (each job owns one read buffer and one reseal
	// buffer) and the range a fault abandons.
	pipelineDepth = 8
	// latSamples sizes the reseal-latency reservoir (power of two).
	latSamples = 4096
)

// token signals job completion through a reused one-slot channel.
type token struct{}

// relayJob is one unit of relay work: a sequence reservation, a
// persistent reseal buffer, and — when pipelined — up to maxRelayBatch
// records sharing a detached read buffer. Jobs are slot-recycled per
// direction, so the steady state allocates nothing.
type relayJob struct {
	dir  Direction
	dp   dataPlaneHandler
	recs []tls12.RawRecord // grows to the largest batch the slot has carried
	rsv  batchReservation

	// readBuf is the relay read buffer the records' payloads alias,
	// detached from the recordReader at submit; the commit stage
	// returns it to relayReadBufs once the output is on the wire.
	readBuf *[]byte
	// out is the reseal buffer, owned by the slot for its lifetime.
	out []byte

	res       batchResult
	err       error
	submitted time.Time
	done      chan token // buffered(1): worker signals, committer waits
}

// RelayPool is a host-scoped crypto worker pool. Sessions submit
// record batches; workers run the open/reseal against pre-reserved
// sequence ranges. One pool serves every session of a host (or the
// whole process, via SharedRelayPool), so parallelism is bounded by
// configuration rather than by session count.
type RelayPool struct {
	jobs    chan *relayJob
	workers int
	wg      sync.WaitGroup
	once    sync.Once
	started time.Time

	jobsDone     atomic.Int64
	recordsDone  atomic.Int64
	busyNanos    atomic.Int64
	queued       atomic.Int64
	inFlight     atomic.Int64
	maxInFlight  atomic.Int64
	submitStalls atomic.Int64
	windowStalls atomic.Int64

	latIdx atomic.Uint64
	lat    [latSamples]atomic.Int64
}

// NewRelayPool starts a pool with the given worker count; workers <= 0
// derives the count from GOMAXPROCS. Close the pool only after every
// session that can submit to it has drained.
func NewRelayPool(workers int) *RelayPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &RelayPool{
		jobs:    make(chan *relayJob, 4*workers),
		workers: workers,
		started: time.Now(),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

var (
	sharedRelayPoolOnce sync.Once
	sharedRelayPool     *RelayPool
)

// SharedRelayPool returns the process-wide pool, created on first use
// with one worker per GOMAXPROCS. It is never closed.
func SharedRelayPool() *RelayPool {
	sharedRelayPoolOnce.Do(func() { sharedRelayPool = NewRelayPool(0) })
	return sharedRelayPool
}

// Close stops the workers. Submitting after Close panics; hosts close
// their pool only after the session drain completes.
func (p *RelayPool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// Workers returns the pool's worker count.
func (p *RelayPool) Workers() int { return p.workers }

// worker runs crypto jobs until the pool closes. Each worker owns one
// heap-resident scratch — per-call stack buffers would escape through
// the cipher.AEAD interface and cost an allocation per record.
func (p *RelayPool) worker() {
	defer p.wg.Done()
	sc := new(tls12.CryptoScratch)
	pprof.Do(context.Background(), pprof.Labels("mbtls_stage", "pipeline-worker"), func(context.Context) {
		for j := range p.jobs {
			p.queued.Add(-1)
			start := time.Now()
			j.out, j.res, j.err = j.dp.process(j.dir, j.recs, j.rsv, sc, j.out[:0])
			p.busyNanos.Add(time.Since(start).Nanoseconds())
			p.jobsDone.Add(1)
			p.recordsDone.Add(int64(len(j.recs)))
			j.done <- token{}
		}
	})
}

// enqueue hands a job to the workers, counting a stall when every
// worker is busy and the queue is full.
func (p *RelayPool) enqueue(j *relayJob) {
	p.queued.Add(1)
	select {
	case p.jobs <- j:
	default:
		p.submitStalls.Add(1)
		p.jobs <- j
	}
}

// noteLatency records one job's submit→commit latency in the
// reservoir.
func (p *RelayPool) noteLatency(d time.Duration) {
	idx := (p.latIdx.Add(1) - 1) % latSamples
	p.lat[idx].Store(int64(d))
}

// RelayPoolStats is a point-in-time snapshot of pool activity.
type RelayPoolStats struct {
	Workers          int
	JobsProcessed    int64
	RecordsProcessed int64
	// Utilization is the busy fraction across all workers since the
	// pool started (1.0 = every worker always busy).
	Utilization float64
	// QueueDepth is the jobs enqueued but not yet picked up;
	// InFlight counts submitted-but-uncommitted jobs (pipeline depth)
	// and MaxInFlight its high-water mark.
	QueueDepth  int64
	InFlight    int64
	MaxInFlight int64
	// SubmitStalls counts jobs that found every worker busy;
	// WindowStalls counts submissions that waited for a commit to free
	// a pipeline slot.
	SubmitStalls int64
	WindowStalls int64
	// ResealP50/P99 are per-job submit→commit latency quantiles over a
	// sliding reservoir.
	ResealP50 time.Duration
	ResealP99 time.Duration
}

// Stats snapshots the pool counters.
func (p *RelayPool) Stats() RelayPoolStats {
	s := RelayPoolStats{
		Workers:          p.workers,
		JobsProcessed:    p.jobsDone.Load(),
		RecordsProcessed: p.recordsDone.Load(),
		QueueDepth:       p.queued.Load(),
		InFlight:         p.inFlight.Load(),
		MaxInFlight:      p.maxInFlight.Load(),
		SubmitStalls:     p.submitStalls.Load(),
		WindowStalls:     p.windowStalls.Load(),
	}
	if elapsed := time.Since(p.started); elapsed > 0 && p.workers > 0 {
		s.Utilization = float64(p.busyNanos.Load()) / (float64(elapsed) * float64(p.workers))
	}
	n := p.latIdx.Load()
	if n > latSamples {
		n = latSamples
	}
	samples := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		if v := p.lat[i].Load(); v > 0 {
			samples = append(samples, v)
		}
	}
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s.ResealP50 = time.Duration(samples[len(samples)/2])
		s.ResealP99 = time.Duration(samples[len(samples)*99/100])
	}
	return s
}

// commitGate owns one direction's sequence positions; the data plane
// keeps none. openSeq is the next arrival sequence to open at, sealSeq
// the committed sealing sequence (everything below it is on the wire),
// reserved the reservation high-water, where the next job's seal range
// starts; the last two differ only while pipelined jobs are in flight.
// err poisons the direction: data commits drop their output (the
// session is dying and an alert may already hold the next sequence
// number). The mutex is held only for bookkeeping plus alert sealing,
// never across a conn write.
type commitGate struct {
	flushMu   sync.Mutex
	openSeq   uint64
	sealSeq   uint64
	reserved  uint64
	overhead  int // bytes sealing adds to a plaintext
	err       error
	alertSent bool
}

// reserve claims a batch's sequence ranges: one open sequence per
// inbound record, and the seal range its output geometry predicts from
// wire lengths — or, when a Processor makes that unpredictable
// (openEnded), nothing past its start. Relay-goroutine only:
// reservation order is arrival order is commit order. It is arithmetic
// on host-held values, no data-plane call, so it never crosses into an
// enclave.
func (g *commitGate) reserve(recs []tls12.RawRecord, openEnded bool) batchReservation {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	rsv := batchReservation{openStart: g.openSeq, sealStart: g.reserved}
	g.openSeq += uint64(len(recs))
	if !openEnded {
		for _, rec := range recs {
			rsv.outCount += predictOutRecords(len(rec.Payload), g.overhead)
		}
		g.reserved += uint64(rsv.outCount)
	}
	return rsv
}

// dirPipeline is one relay direction's job state, owned by the relay
// goroutine except where noted. Slot recycling between the relay and
// the commit goroutine rides two channels: submitCh carries jobs in
// ticket (arrival) order, freeCh returns committed slots.
type dirPipeline struct {
	s    *mbSession
	dir  Direction
	pool *RelayPool
	gate *commitGate

	free  []*relayJob
	total int

	submitCh      chan *relayJob
	freeCh        chan *relayJob
	committerUp   bool
	committerDone chan struct{}

	// inline is the slot of the jobs the relay goroutine runs itself,
	// inlineSc their crypto scratch (heap-resident with the pipeline,
	// like a worker's). openEnded: the session has a Processor, so those
	// jobs' output geometry is unknown until they have run.
	inline    relayJob
	inlineSc  tls12.CryptoScratch
	openEnded bool
}

func newDirPipeline(s *mbSession, dir Direction) *dirPipeline {
	return &dirPipeline{
		s:             s,
		dir:           dir,
		pool:          s.mb.relayPool,
		gate:          s.gate(dir),
		submitCh:      make(chan *relayJob, pipelineDepth),
		freeCh:        make(chan *relayJob, pipelineDepth),
		committerDone: make(chan struct{}),
		inline:        relayJob{out: s.mb.bufs.GetRecordBuf()},
		openEnded:     s.mb.cfg.NewProcessor != nil,
	}
}

// slot returns a job slot to submit into: a recycled one when
// available, a fresh one while ramping up to pipelineDepth, else it
// blocks until the commit stage frees one (the pipeline's
// backpressure).
func (pl *dirPipeline) slot() *relayJob {
	for {
		select {
		case j := <-pl.freeCh:
			pl.free = append(pl.free, j)
			continue
		default:
		}
		break
	}
	if n := len(pl.free); n > 0 {
		j := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return j
	}
	if pl.total < pipelineDepth {
		pl.total++
		return &relayJob{out: pl.s.mb.bufs.GetRecordBuf(), done: make(chan token, 1)}
	}
	pl.pool.windowStalls.Add(1)
	return <-pl.freeCh
}

// submit reserves the batch's sequence ranges and hands it to the
// worker pool, detaching the reader's buffer so the records stay valid
// while the relay reads ahead. Relay-goroutine only: reservation order
// is commit order.
func (pl *dirPipeline) submit(dp dataPlaneHandler, rr *recordReader, batch []tls12.RawRecord) error {
	if err := pl.takeErr(); err != nil {
		return err
	}
	j := pl.slot()
	j.dir, j.dp = pl.dir, dp
	j.rsv = pl.gate.reserve(batch, false)
	j.recs = append(j.recs[:0], batch...)
	j.readBuf = rr.detach()
	j.submitted = time.Now()
	if !pl.committerUp {
		pl.committerUp = true
		go pl.commitLoop()
	}
	d := pl.pool.inFlight.Add(1)
	for {
		m := pl.pool.maxInFlight.Load()
		if d <= m || pl.pool.maxInFlight.CompareAndSwap(m, d) {
			break
		}
	}
	pl.submitCh <- j
	pl.pool.enqueue(j)
	return nil
}

// runInline runs a batch as a job on the relay goroutine: wait out the
// jobs in flight, reserve, process, commit.
// It is the path of every batch that must be ordered — a Processor
// needs its input in stream order; a batch ended by a non-data record
// or a framing error has the relay waiting for it anyway — and of the
// single records of the slow path (hop-protected alerts, the
// False-Start window). Same reservation, same loop, same commit as a
// pipelined job; it only skips the hand-offs, so it touches no pool
// counter and needs no buffer detach: the records stay valid in the
// reader because the relay reads nothing until the job has committed.
func (pl *dirPipeline) runInline(dp dataPlaneHandler, batch []tls12.RawRecord) error {
	if err := pl.flush(); err != nil {
		return err
	}
	j := &pl.inline
	j.rsv = pl.gate.reserve(batch, pl.openEnded)
	j.out, j.res, j.err = dp.process(pl.dir, batch, j.rsv, &pl.inlineSc, j.out[:0])
	return pl.commit(j)
}

// flush blocks until every submitted job has committed, then reports
// the direction's poison error if any. The relay calls it before
// anything it writes to its direction itself, so neither an inline job
// nor a forwarded record ever overtakes pipelined output.
func (pl *dirPipeline) flush() error {
	for pl.total-len(pl.free) > 0 {
		pl.free = append(pl.free, <-pl.freeCh)
	}
	return pl.takeErr()
}

// takeErr reads the direction's poison error.
func (pl *dirPipeline) takeErr() error {
	g := pl.gate
	g.flushMu.Lock()
	err := g.err
	g.flushMu.Unlock()
	return err
}

// commitLoop is the per-direction commit goroutine: it waits for each
// pipelined job in ticket order, commits it, and recycles the slot and
// its read buffer. It exits when the relay closes submitCh at teardown.
func (pl *dirPipeline) commitLoop() {
	pprof.Do(context.Background(), pprof.Labels(
		"mbtls_session", strconv.FormatUint(pl.s.id, 10),
		"mbtls_dir", pl.dir.String(),
		"mbtls_stage", "commit",
	), func(context.Context) {
		for j := range pl.submitCh {
			<-j.done
			pl.pool.noteLatency(time.Since(j.submitted))
			pl.commit(j) //nolint:errcheck // commit acted on it; the relay reads it from the gate
			relayReadBufs.Put(j.readBuf)
			j.readBuf = nil
			pl.pool.inFlight.Add(-1)
			pl.freeCh <- j
		}
	})
	close(pl.committerDone)
}

// commit releases one job's resealed output in arrival order: settle
// the sealing position, account stats, fold the proxysig digest, and
// write the wire bytes. It is the only place any of that happens, for
// pipelined and inline jobs alike, so digest order is wire order by
// construction. One caller at a time per direction: the commit
// goroutine, or the relay goroutine once flush has seen it idle.
//
// The outbound write lock brackets the settling and the write, so wire
// order is sequence order too: an alert sealed at the next position
// (sealAlertOrdered takes the same lock first) queues behind this job's
// bytes instead of overtaking them. The gate's own mutex is still held
// for the bookkeeping only, never across the write.
//
// A failed job releases its partial output (those records consumed
// sealing sequence numbers), poisons the direction, and fails the
// session — the relay goroutine may be blocked reading a healthy
// transport, so the committer cannot leave that to it. The returned
// error is the direction's poison, if any.
func (pl *dirPipeline) commit(j *relayJob) error {
	s, dir, g := pl.s, pl.dir, pl.gate
	conn, mu := s.outbound(dir)
	mu.Lock()
	g.flushMu.Lock()
	if err := g.err; err != nil {
		// Poisoned (a fault alert may already hold the next sequence
		// number): drop the output.
		g.flushMu.Unlock()
		mu.Unlock()
		return err
	}
	g.sealSeq = j.rsv.sealStart + uint64(j.res.appended)
	if g.sealSeq != j.rsv.sealStart+uint64(j.rsv.outCount) {
		// The claim is not what was sealed: a failed job stopped short of
		// its reservation (abandoning it and every later one), or an
		// open-ended one claimed nothing. The next range starts here.
		g.reserved = g.sealSeq
	}
	err := j.err
	g.err = err // a failed job poisons the direction
	g.flushMu.Unlock()

	out := j.out
	s.mb.recordsRekeyed.Add(int64(j.res.opened))
	s.mb.bytesProcessed.Add(int64(len(out) - j.res.appended*recordHeaderLen))
	if s.proxySig.Load() && len(out) > 0 {
		s.noteResealed(dir, out, j.res.appended)
	}
	var werr error
	if len(out) > 0 {
		_, werr = conn.Write(out)
	}
	mu.Unlock()
	if err == nil && werr != nil {
		g.flushMu.Lock()
		fresh := g.err == nil
		if fresh {
			g.err = werr
		}
		werr = g.err
		g.flushMu.Unlock()
		if !fresh {
			// An alert ended the direction while the write was failing:
			// that is the teardown, not a new fault.
			return werr
		}
		err = werr
	}
	if err != nil {
		s.fail(err)
	}
	return err
}

// shutdown ends the pipeline at relay exit. It must not block on the
// committer: a commit write can be wedged in a dead transport until
// run's closeAll, which only happens after the relay reports its
// error. Slot buffers are reclaimed by a reaper the session's teardown
// waits for (run blocks on s.bg after closeAll).
func (pl *dirPipeline) shutdown() {
	if !pl.committerUp {
		pl.reclaim()
		return
	}
	close(pl.submitCh)
	pl.s.bg.Add(1)
	go func() {
		defer pl.s.bg.Done()
		<-pl.committerDone
		for pl.total-len(pl.free) > 0 {
			pl.free = append(pl.free, <-pl.freeCh)
		}
		pl.reclaim()
	}()
}

// reclaim returns every idle slot's reseal buffer to the pool (read
// buffers went back as each job committed).
func (pl *dirPipeline) reclaim() {
	for _, j := range append(pl.free, &pl.inline) {
		if j.out != nil {
			pl.s.mb.bufs.PutRecordBuf(j.out)
			j.out = nil
		}
	}
	pl.free = pl.free[:0]
}

// bothDirections is what a session-wide step (seeding the gates,
// alerting both neighbors) ranges over.
var bothDirections = [2]Direction{DirClientToServer, DirServerToClient}

// dirIndex maps a Direction to a dense array index.
func dirIndex(dir Direction) int {
	if dir == DirServerToClient {
		return 1
	}
	return 0
}

// gate returns a direction's commit gate.
func (s *mbSession) gate(dir Direction) *commitGate {
	return &s.gates[dirIndex(dir)]
}

// seedGates gives both gates their starting positions — key material
// carries arbitrary ones — from the freshly built plane, while it is
// still host-side. Runs before the plane is published, so every
// observer of dp sees seeded gates.
func (s *mbSession) seedGates(host *dataPlane) {
	for _, dir := range bothDirections {
		openCS, sealCS := host.states(dir)
		g := s.gate(dir)
		g.flushMu.Lock()
		g.openSeq, g.sealSeq, g.reserved = openCS.Seq(), sealCS.Seq(), sealCS.Seq()
		g.overhead = sealCS.Overhead()
		g.flushMu.Unlock()
	}
}

// sealAlertOrdered seals an alert at the committed sealing position,
// abandoning any reserved-but-uncommitted range so the alert verifies
// at the peer, and poisons the direction so later data commits drop
// their (now out-of-sequence) output. At most one alert per direction:
// fault and force-close paths race, and the first claims it. The claim
// and the poison come before the wait for the outbound write lock, so
// a second caller never queues behind a wedged transport (it goes on
// to close it); the position is read once that lock is held, behind
// whatever commit was mid-write.
func (s *mbSession) sealAlertOrdered(dp dataPlaneHandler, dir Direction, level tls12.AlertLevel, desc tls12.AlertDescription) error {
	g := s.gate(dir)
	g.flushMu.Lock()
	claimed := !g.alertSent
	g.alertSent = true
	if g.err == nil {
		g.err = io.ErrClosedPipe
	}
	g.flushMu.Unlock()
	if !claimed {
		return nil
	}
	conn, mu := s.outbound(dir)
	mu.Lock()
	defer mu.Unlock()
	g.flushMu.Lock()
	wire, err := dp.appendAlertAt(dir, g.sealSeq, level, desc, new(tls12.CryptoScratch), make([]byte, 0, 64))
	if err == nil {
		g.sealSeq++
		g.reserved = g.sealSeq
	}
	g.flushMu.Unlock()
	if err != nil {
		return err
	}
	_, err = conn.Write(wire)
	return err
}

// relay wraps the relay loop in pprof labels so -cpuprofile output
// attributes data-plane work per session, direction, and stage.
func (s *mbSession) relay(dir Direction) (err error) {
	pprof.Do(context.Background(), pprof.Labels(
		"mbtls_session", strconv.FormatUint(s.id, 10),
		"mbtls_dir", dir.String(),
		"mbtls_stage", "relay",
	), func(context.Context) {
		err = s.relayLoop(dir)
	})
	return err
}
