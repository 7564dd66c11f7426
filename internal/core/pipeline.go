// The middlebox relay's one data path (DESIGN.md §14). Per-record
// open/reseal needs no shared state once a job is told its sequence
// positions: the open nonce is the arrival sequence and the seal nonce
// the commit sequence. Each direction has one consumer of jobs, taking
// them in arrival order, so a job's positions are exactly where the
// direction's commit gate stands when the job is processed, and a
// batch's crypto can still run off the relay goroutine while the relay
// keeps reading. Every batch is one job through the same three steps:
//
//	start    take the job's sequence starts from the direction's
//	         commit gate — arithmetic, no data-plane call
//	process  open/reseal at those positions, lock-free — the job's
//	         one data-plane call
//	commit   release the resealed output, move the sealing position
//	         past it, account stats, and fold proxysig digests in
//	         strict arrival order
//
// A pipelined job is queued by the relay goroutine and started,
// processed and committed by the direction's commit goroutine while the
// relay reads ahead. A job that must be ordered runs all three steps
// inline on the relay goroutine, after the jobs in flight have
// committed. The commit gate is the only holder of a direction's
// sequence positions, so a fault path seals its alert at the committed
// position and poisons the gate: the alert verifies at the peer, and
// every later commit drops its output.
package core

import (
	"context"
	"io"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/tls12"
)

// pipelineDepth bounds queued jobs per direction: the relay blocks
// taking a slot once this many are uncommitted, which bounds both memory
// (each job owns one read buffer and one reseal buffer) and the range a
// fault abandons. With one consumer per direction it buys read-ahead,
// not parallel work (EXPERIMENTS.md, "One consumer per direction").
const pipelineDepth = 8

// relayJob is one unit of relay work: a persistent reseal buffer and —
// when pipelined — up to maxRelayBatch records sharing a detached read
// buffer. Jobs are slot-recycled per direction, so the steady state
// allocates nothing.
type relayJob struct {
	dp   dataPlaneHandler
	recs []tls12.RawRecord // grows to the largest batch the slot has carried

	// readBuf is the relay read buffer the records' payloads alias,
	// detached from the recordReader at submit; the commit goroutine
	// returns it to relayReadBufs once the output is on the wire.
	readBuf *[]byte
	// out is the reseal buffer, owned by the slot for its lifetime.
	out []byte

	res batchResult
	err error
}

// commitGate owns one direction's sequence positions; the data plane
// keeps none. openSeq is the next arrival sequence to open at, sealSeq
// the next sealing sequence: everything below it is on the wire.
// err poisons the direction: data commits drop their output (the
// session is dying and an alert may already hold the next sequence
// number). retired marks the data plane gone (mbSession.retire): an
// alert still to be sealed is dropped. The mutex is held only for
// bookkeeping plus alert sealing, never across a conn write.
type commitGate struct {
	flushMu   sync.Mutex
	openSeq   uint64
	sealSeq   uint64
	err       error
	alertSent bool
	retired   bool
}

// start hands a job of n inbound records its sequence starts and moves
// the open position past them. It is called right before the job is
// processed, by the direction's one consumer — the commit goroutine,
// or the relay goroutine once flush has seen that idle — so every
// earlier job has committed and sealSeq is exactly where this job's
// output begins; its commit moves sealSeq by what it sealed. On a
// poisoned gate it returns the poison instead: a job queued behind a
// fault or an alert is never processed, so it costs no enclave
// crossing. It is arithmetic on host-held values, no data-plane call,
// so it never crosses into an enclave itself.
func (g *commitGate) start(n int) (batchReservation, error) {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	if g.err != nil {
		return batchReservation{}, g.err
	}
	rsv := batchReservation{openStart: g.openSeq, sealStart: g.sealSeq}
	g.openSeq += uint64(n)
	return rsv, nil
}

// dirPipeline is one relay direction's job state, owned by the relay
// goroutine except where noted. Slot recycling between the relay and
// the commit goroutine rides two channels: submitCh carries jobs in
// ticket (arrival) order, freeCh returns committed slots.
type dirPipeline struct {
	s    *mbSession
	dir  Direction
	gate *commitGate

	free  []*relayJob
	total int

	submitCh      chan *relayJob
	freeCh        chan *relayJob
	committerUp   bool
	committerDone chan struct{}

	// inline is the slot of the jobs the relay goroutine runs itself.
	inline relayJob
	// sc is the direction's crypto scratch, heap-resident with the
	// pipeline (per-call stack buffers would escape through the
	// cipher.AEAD interface and cost an allocation per record). The
	// commit goroutine and inline jobs share it: runInline flushes
	// first, so they never overlap.
	sc tls12.CryptoScratch
}

func newDirPipeline(s *mbSession, dir Direction) *dirPipeline {
	return &dirPipeline{
		s:             s,
		dir:           dir,
		gate:          s.gate(dir),
		submitCh:      make(chan *relayJob, pipelineDepth),
		freeCh:        make(chan *relayJob, pipelineDepth),
		committerDone: make(chan struct{}),
		inline:        relayJob{out: s.mb.bufs.GetRecordBuf()},
	}
}

// slot returns a job slot to submit into: a recycled one when
// available, a fresh one while ramping up to pipelineDepth, else it
// blocks until the commit goroutine frees one (the pipeline's
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
		return &relayJob{out: pl.s.mb.bufs.GetRecordBuf()}
	}
	return <-pl.freeCh
}

// submit hands the batch to the direction's commit goroutine,
// detaching the reader's buffer so the records stay valid while the
// relay reads ahead. Relay-goroutine only: submission order is arrival
// order is commit order.
func (pl *dirPipeline) submit(dp dataPlaneHandler, rr *recordReader, batch []tls12.RawRecord) error {
	if err := pl.takeErr(); err != nil {
		return err
	}
	j := pl.slot()
	j.dp = dp
	j.recs = append(j.recs[:0], batch...)
	j.readBuf = rr.detach()
	if !pl.committerUp {
		pl.committerUp = true
		go pl.commitLoop()
	}
	pl.submitCh <- j
	return nil
}

// runInline runs a batch as a job on the relay goroutine: wait out the
// jobs in flight, start, process, commit.
// It is the path of every batch the relay waits for anyway — one ended
// by a non-data record or a framing error — of every job of a session
// with a Processor (relayLoop says why), and of the single records of
// the slow path (hop-protected alerts, the False-Start window). Same
// start, same loop, same commit as a pipelined job; it only skips the
// hand-off, so it needs no buffer detach: the records stay valid in the
// reader because the relay reads nothing until the job has committed.
func (pl *dirPipeline) runInline(dp dataPlaneHandler, batch []tls12.RawRecord) error {
	if err := pl.flush(); err != nil {
		return err
	}
	rsv, err := pl.gate.start(len(batch))
	if err != nil {
		return err
	}
	j := &pl.inline
	j.out, j.res, j.err = dp.process(pl.dir, batch, rsv, &pl.sc, j.out[:0])
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

// commitLoop is the per-direction commit goroutine: it takes each
// pipelined job in ticket order, starts, processes and commits it —
// or, behind a poisoned gate, skips it — and recycles the slot and its
// read buffer. It exits when the relay closes submitCh at teardown.
func (pl *dirPipeline) commitLoop() {
	pprof.Do(context.Background(), pprof.Labels(
		"mbtls_session", strconv.FormatUint(pl.s.id, 10),
		"mbtls_dir", pl.dir.String(),
		"mbtls_stage", "commit",
	), func(context.Context) {
		for j := range pl.submitCh {
			if rsv, err := pl.gate.start(len(j.recs)); err == nil {
				j.out, j.res, j.err = j.dp.process(pl.dir, j.recs, rsv, &pl.sc, j.out[:0])
				pl.s.mb.recordsPipelined.Add(int64(len(j.recs)))
				pl.commit(j) //nolint:errcheck // commit acted on it; the relay reads it from the gate
			}
			relayReadBufs.Put(j.readBuf)
			j.readBuf = nil
			pl.freeCh <- j
		}
	})
	close(pl.committerDone)
}

// commit releases one job's resealed output in arrival order: move the
// sealing position past it, account stats, fold the proxysig digest,
// and write the wire bytes. It is the only place any of that happens, for
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
// sealing sequence numbers), poisons the direction, so the jobs started
// behind it commit nothing, and fails the session: the relay goroutine
// may be blocked reading a healthy transport, so the committer cannot
// leave that to it. The returned error is the direction's poison, if
// any.
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
	g.sealSeq += uint64(j.res.appended)
	err := j.err
	g.err = err // a failed job poisons the direction
	g.flushMu.Unlock()

	out := j.out
	s.mb.recordsRekeyed.Add(int64(j.res.opened))
	s.mb.bytesProcessed.Add(int64(len(out) - j.res.appended*recordHeaderLen))
	if len(out) > 0 && s.acct != nil {
		s.acct.noteResealed(dir, out, j.res.appended)
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
		g.openSeq, g.sealSeq = openCS.Seq(), sealCS.Seq()
		g.flushMu.Unlock()
	}
}

// sealAlertOrdered seals an alert at the committed sealing position —
// the next sequence the peer opens at, whatever jobs are in flight, so
// the alert verifies there — and poisons the direction so later data
// commits drop their (now out-of-sequence) output. At most one alert
// per direction: fault and force-close paths race, and the first claims
// it. The claim and the poison come before the wait for the outbound
// write lock, so a second caller never queues behind a wedged transport
// (it goes on to close it); the position is read once that lock is
// held, behind whatever commit was mid-write.
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
	if g.retired {
		g.flushMu.Unlock()
		return io.ErrClosedPipe
	}
	wire, err := dp.appendAlertAt(dir, g.sealSeq, level, desc, new(tls12.CryptoScratch), make([]byte, 0, 64))
	if err == nil {
		g.sealSeq++
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
