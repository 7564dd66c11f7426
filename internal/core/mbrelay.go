package core

import (
	"errors"
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
	s.fail(err) // the first relay error decides the session's fate
	<-errc
	if err == io.EOF || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// maxRelayBatch caps how many records one data-plane job, inline or
// pipelined (and thus one pair of ecalls and one outbound write), may
// carry, bounding latency and the size of the reseal buffer. A full
// read buffer of small records still splits into several jobs; records
// of 2 KiB and up are bounded by the buffer first.
const maxRelayBatch = 32

// relayLoop pumps records in one direction, participating in the mbTLS
// handshake and data plane as required. Steady-state application data
// is drained in batches: every buffered record headed for the data
// plane is collected and crosses it as one job (pipeline.go) — handed
// to the direction's commit goroutine while the relay reads ahead, or
// run inline on this goroutine when the job must be ordered. Everything
// else (handshake, discovery, pre-key alerts) is forwarded record by
// record, behind a flush so it never overtakes pipelined output.
func (s *mbSession) relayLoop(dir Direction) error {
	src := s.downR
	if dir == DirServerToClient {
		src = io.Reader(s.up)
	}
	rr := newRecordReader(src)
	defer rr.release()
	// Job state, created at the first record that crosses the data plane
	// so handshake-only and non-mbTLS sessions pay nothing.
	var pl *dirPipeline
	defer func() {
		if pl != nil {
			pl.shutdown()
		}
	}()
	// A Processor needs its input in stream order (and makes the output
	// geometry unpredictable), so its sessions run every job inline.
	inlineOnly := s.mb.cfg.NewProcessor != nil
	// Reused per-direction batch, grown to the largest one seen; each
	// direction is driven by exactly one goroutine, so no locking here.
	var batch []tls12.RawRecord
	for {
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
			if pl != nil {
				if err := pl.flush(); err != nil {
					return err
				}
			}
			if dp, err = s.handleRecordWire(dir, rec, wire); err != nil {
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
// original framing, forwarded directly when the record passes through
// unmodified; it aliases the relay's read buffer and must not be
// retained. A hop-protected record cannot be forwarded: the data plane
// is returned instead, and the caller runs the record through it.
func (s *mbSession) handleRecordWire(dir Direction, rec tls12.RawRecord, wire []byte) (dataPlaneHandler, error) {
	r := s.role.Load()
	switch rec.Type {
	case tls12.TypeEncapsulated:
		if len(rec.Payload) < 1 {
			return nil, errors.New("core: empty Encapsulated record")
		}
		sub := rec.Payload[0]
		if sub == neighborSubchannel && r.neighbor {
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
			s.secGotData.Store(true)
			s.secPipe.feed(rec.Payload[1:])
			return nil, nil
		}
		return nil, s.forward(dir, wire)

	case tls12.TypeHandshake:
		if dir == DirServerToClient && !r.announce {
			if err := s.holdServerHello(r); err != nil {
				return nil, err
			}
		}
		return nil, s.forward(dir, wire)

	case tls12.TypeApplicationData:
		if s.degraded.Load() {
			return nil, s.forward(dir, wire)
		}
		if r.announce && !s.secGotData.Load() && s.dataPlaneIfReady() == nil {
			// Data flows, but the server never spoke on our subchannel:
			// a lenient legacy server skipped the announcement (paper
			// §3.4). Degrade to a transparent relay, and cache it.
			s.degraded.Store(true)
			s.notifyEstablished()
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
			return nil, s.forward(dir, wire)
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
		return nil, s.forward(dir, wire)

	default:
		return nil, s.forward(dir, wire)
	}
}
