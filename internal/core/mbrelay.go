package core

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/tls12"
)

// relayBoth relays both directions of a joined session until the first
// one ends, then tears the session down.
func (s *mbSession) relayBoth() error {
	errc := make(chan error, 2)
	go func() { errc <- s.relay(DirClientToServer) }()
	go func() { errc <- s.relay(DirServerToClient) }()
	err := <-errc
	if closedEnd(err) && !s.closing.Load() && s.dataPlaneIfReady() == nil && !s.degraded.Load() {
		// A peer that goes away before the join ended aborted the
		// handshake, however its socket reported it: EOF on the read
		// from it, or a closed pipe on a write toward it. A reset's
		// error goes to whichever syscall meets it first, so the relay
		// reading from the peer may see EOF.
		err = fmt.Errorf("core: peer closed during the join: %w", io.ErrUnexpectedEOF)
	}
	s.fail(err) // the first relay error decides the session's fate
	<-errc
	if closedEnd(err) {
		return nil
	}
	return err
}

// closedEnd reports whether a relay ended on a closed transport rather
// than a fault.
func closedEnd(err error) bool {
	return err == io.EOF || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}

// maxRelayBatch caps how many records one data-plane job, inline or
// pipelined (and thus one pair of ecalls and one outbound write), may
// carry, bounding latency and the size of the reseal buffer. A full
// read buffer of small records still splits into several jobs; records
// of 2 KiB and up are bounded by the buffer first.
const maxRelayBatch = 32

// fwdRun is a run of pass-through records parsed but not yet forwarded
// in one direction. Its records are consecutive in one buffer — the
// relay's recordReader, or the sniffed hello bytes — so the run is one
// slice of it and leaves in one write, without a copy. In the relay the
// slice stays valid until the reader next compacts, which it does only
// when no complete record remains buffered; so the relay flushes the
// run then, before anything it writes, feeds or waits on itself, and on
// every return.
type fwdRun struct {
	s    *mbSession
	dir  Direction
	wire []byte
	n    int64 // records in wire
}

// add appends one record's wire bytes to the run. Bytes that do not
// continue the run's slice start a new run, behind a flush.
func (fr *fwdRun) add(wire []byte) error {
	if n := len(fr.wire); n > 0 {
		if n+len(wire) <= cap(fr.wire) && &fr.wire[:n+1][n] == &wire[0] {
			fr.wire = fr.wire[:n+len(wire)]
			fr.n++
			return nil
		}
		if err := fr.flush(); err != nil {
			return err
		}
	}
	fr.wire, fr.n = wire, 1
	return nil
}

// flush forwards the run in one write; it does nothing when the run is
// empty.
func (fr *fwdRun) flush() error {
	if len(fr.wire) == 0 {
		return nil
	}
	fr.s.mb.recordsRelayed.Add(fr.n)
	err := fr.s.write(fr.dir, fr.wire)
	fr.wire, fr.n = nil, 0
	return err
}

// relayLoop pumps records in one direction, participating in the mbTLS
// handshake and data plane as required. Steady-state application data
// is drained in batches: every buffered record headed for the data
// plane is collected and crosses it as one job (pipeline.go) — handed
// to the direction's commit goroutine while the relay reads ahead, or
// run inline on this goroutine when the relay waits for it anyway or
// the session has a Processor. Everything else (handshake, discovery,
// pre-key alerts) is forwarded in runs (fwdRun): every such record
// already buffered leaves in one write, behind a flush of the pipeline
// so it never overtakes pipelined output.
func (s *mbSession) relayLoop(dir Direction) error {
	src := s.downR
	if dir == DirServerToClient {
		src = io.Reader(s.up)
	}
	rr := newRecordReader(src)
	defer rr.release()
	fr := &fwdRun{s: s, dir: dir}
	// Whatever ends the relay, the records read ahead of it go on.
	defer fr.flush() //nolint:errcheck // the relay is failing already
	// Job state, created at the first record that crosses the data plane
	// so handshake-only and non-mbTLS sessions pay nothing.
	var pl *dirPipeline
	defer func() {
		if pl != nil {
			pl.shutdown()
		}
	}()
	// A session with a Processor runs every job inline. That is measured,
	// not needed for order (the commit goroutine takes jobs first in,
	// first out): on rr_http, one small record a turn, pipelining those
	// jobs costs a hand-off to the commit goroutine each way, and lost
	// to inline in 11 of 14 rounds on ops_per_s and cpu_us_per_op and 10
	// of 14 on latency_p50_us (EXPERIMENTS.md, "Processor sessions stay
	// inline").
	inlineOnly := s.mb.cfg.NewProcessor != nil
	// Reused per-direction batch, grown to the largest one seen; each
	// direction is driven by exactly one goroutine, so no locking here.
	var batch []tls12.RawRecord
	for {
		if len(fr.wire) > 0 && !rr.ready() {
			// The next read may compact the buffer under the run.
			if err := fr.flush(); err != nil {
				return err
			}
		}
		rec, wire, err := rr.next()
		if err != nil {
			// The read error may be the echo of a fault this direction's
			// commit goroutine already detected and acted on (it closes
			// the transports); surface the original fault instead of the
			// secondary close error.
			if pl != nil {
				if gerr := pl.takeErr(); gerr != nil && !errors.Is(gerr, io.ErrClosedPipe) {
					return gerr
				}
			}
			return err
		}
		batch = append(batch[:0], rec)
		inline, collect := inlineOnly, true
		dp := s.batchReady(rec.Type)
		if dp == nil {
			// A pending run never waits here: its first record came
			// through this flush, and every job since would have flushed
			// the run, so nothing is in flight behind it.
			if pl != nil {
				if err := pl.flush(); err != nil {
					return err
				}
			}
			if dp, err = s.handleRecordWire(fr, rec, wire); err != nil {
				return err
			}
			if dp == nil {
				continue
			}
			// A hop-protected alert, or data that waited out the
			// False-Start window: a one-record job, in stream order.
			inline, collect = true, false
		}
		// Fast path: drain every already-buffered data record into the
		// batch. When what follows in the buffer is not such a record —
		// a different disposition, or a header that does not parse — the
		// relay has to wait for this batch before it can deal with that
		// anyway, so the batch runs inline: everything buffered ahead of
		// a framing error is committed before the next read reports it.
		for collect {
			typ, _, ok, perr := rr.peekHeader()
			if !ok && perr == nil {
				break
			}
			if perr != nil || s.batchReady(typ) == nil {
				inline = true
				break
			}
			if len(batch) == maxRelayBatch {
				break
			}
			next, _, _ := rr.next() //nolint:errcheck // peekHeader just parsed this record
			batch = append(batch, next)
		}
		if err := fr.flush(); err != nil {
			return err
		}
		if pl == nil {
			pl = newDirPipeline(s, dir)
		}
		if inline {
			err = pl.runInline(dp, batch)
		} else {
			err = pl.submit(dp, rr, batch)
		}
		if err != nil {
			return err
		}
	}
}

// batchReady returns the data plane when a record of the given type can
// take the batched fast path: steady-state application data on a
// joined, non-degraded session whose per-hop keys are already
// installed. Everything else (including the False-Start window before
// key material arrives) goes through handleRecordWire.
func (s *mbSession) batchReady(typ tls12.ContentType) dataPlaneHandler {
	r := s.role.Load()
	if typ != tls12.TypeApplicationData || r == nil || s.degraded.Load() {
		return nil
	}
	if r.announce && !s.secGotData.Load() {
		// Potential legacy-server degrade; let the slow path decide.
		return nil
	}
	return s.dataPlaneIfReady()
}

// handleRecordWire is the per-record slow path. wire is the record's
// original framing, added to the direction's run (fr) when the record
// passes through unmodified; it aliases the relay's read buffer and
// must not be retained. The run is flushed before a record the
// middlebox consumes itself and before anything that waits. A
// hop-protected record cannot be forwarded: the data plane is returned
// instead, and the caller runs the record through it.
func (s *mbSession) handleRecordWire(fr *fwdRun, rec tls12.RawRecord, wire []byte) (dataPlaneHandler, error) {
	r, dir := s.role.Load(), fr.dir
	switch rec.Type {
	case tls12.TypeEncapsulated:
		if len(rec.Payload) < 1 {
			return nil, errors.New("core: empty Encapsulated record")
		}
		sub := rec.Payload[0]
		if sub == neighborSubchannel && r.neighbor {
			if err := fr.flush(); err != nil {
				return nil, err
			}
			// Hop-local: each hop has its own subchannel 0.
			if dir == DirClientToServer {
				s.downNPipe.feed(rec.Payload[1:])
			} else {
				s.upNPipe.feed(rec.Payload[1:])
			}
			return nil, nil
		}
		s.joinMu.Lock()
		// Ours: our subchannel, from the endpoint the role converses with.
		mine := dir == r.mine && s.assigned && sub == s.mySub
		if dir == DirServerToClient && int(sub) > s.maxSubS2C {
			s.maxSubS2C = int(sub)
		}
		s.joinMu.Unlock()
		if mine {
			if err := fr.flush(); err != nil {
				return nil, err
			}
			s.secGotData.Store(true)
			s.secPipe.feed(rec.Payload[1:])
			return nil, nil
		}
		return nil, fr.add(wire)

	case tls12.TypeHandshake:
		if dir == DirServerToClient && !r.announce {
			if err := s.holdServerHello(r, fr); err != nil {
				return nil, err
			}
		}
		return nil, fr.add(wire)

	case tls12.TypeApplicationData:
		if s.degraded.Load() {
			return nil, fr.add(wire)
		}
		if r.announce && !s.secGotData.Load() && s.dataPlaneIfReady() == nil {
			// Data flows, but the server never spoke on our subchannel:
			// a lenient legacy server skipped the announcement (paper
			// §3.4). Degrade to a transparent relay, and cache it.
			s.degraded.Store(true)
			s.notifyEstablished()
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
			return nil, fr.add(wire)
		}
		if err := fr.flush(); err != nil {
			return nil, err
		}
		return s.waitDataPlane()

	case tls12.TypeAlert:
		// Relayed end to end until per-hop keys exist; resealed after.
		if dp := s.dataPlaneIfReady(); dp != nil {
			return dp, nil
		}
		if r.announce && dir == DirServerToClient &&
			!s.secGotData.Load() && len(rec.Payload) == 2 && rec.Payload[0] == 2 {
			// A strict legacy server choked on the announcement. Cache
			// before forwarding, so a client retry finds us transparent.
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
		}
		return nil, fr.add(wire)

	default:
		return nil, fr.add(wire)
	}
}
