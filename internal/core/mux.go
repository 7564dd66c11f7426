package core

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/secmem"
	"repro/internal/tls12"
)

// maxSubchannels bounds the number of middlebox subchannels an endpoint
// will track (the wire format allows 255).
const maxSubchannels = 255

// mux multiplexes an mbTLS endpoint's single transport stream into the
// primary session's record stream plus one virtual stream per
// subchannel. The paper motivates this design (§3.4, "Control
// Messaging"): compared to per-middlebox TCP connections it keeps all
// handshake messages on one path, reduces connection state, and lets
// client-side discovery avoid an extra round trip.
//
// Outer records are never encrypted: primary-session records carry
// their own protection from the primary Conn's record layer, and
// Encapsulated records carry inner records protected by the secondary
// sessions.
//
// While establish runs the mux is corked: the flights its goroutines
// write — the primary handshake, one handler per subchannel, key
// distribution — collect in one buffer, released in one transport
// write when one of them next waits on the peer (DESIGN.md §12
// "Writers").
type mux struct {
	rw io.ReadWriter

	wmu sync.Mutex
	// encBuf is the Encapsulated-framing scratch buffer, guarded by wmu.
	encBuf []byte
	// cork, guarded by wmu, holds the framed records written while
	// corked is set; corking mirrors corked for the lock-free checks.
	// werr is the error a flush met: the bytes it took are lost, so
	// every later flush, and uncork, reports it.
	corked  bool
	cork    []byte
	corking atomic.Bool
	werr    error
	// idle is set while corked and readLoop holds no complete record:
	// a reader that finds its pipe empty then waits on the peer. dead
	// is set once the mux failed: nothing will be read, so the cork
	// holds nothing back and a write meets the transport's error.
	idle atomic.Bool
	dead atomic.Bool

	primary *pipeBuf

	mu     sync.Mutex
	subs   map[uint8]*pipeBuf
	closed bool
	err    error // why, once closed
	// newSub delivers IDs of subchannels opened by the peer side.
	newSub chan uint8
}

// newMux starts demultiplexing rw, corked: it holds its writes until a
// reader waits on the peer, the cork would outgrow one record, or
// flush, uncork or dropCork releases it. The cork is in place before
// readLoop starts, so readLoop keeps idle from its first read.
func newMux(rw io.ReadWriter) *mux {
	m := &mux{rw: rw, subs: make(map[uint8]*pipeBuf), newSub: make(chan uint8, maxSubchannels)}
	m.corked = true
	m.cork = tls12.GetRecordBuf()
	m.corking.Store(true)
	m.primary = m.newPipe(m.writeRaw)
	go m.readLoop()
	return m
}

// newPipe opens a pipe that, while the mux is corked, tells it when a
// reader is about to wait (pipeBuf.cork).
func (m *mux) newPipe(writeFn func([]byte) error) *pipeBuf {
	p := newPipeBuf(writeFn)
	if m.corking.Load() {
		p.cork = m
	}
	return p
}

// writeRaw writes pre-framed record bytes to the transport.
func (m *mux) writeRaw(b []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.corked {
		return m.corkLocked(len(b), func(dst []byte) []byte { return append(dst, b...) })
	}
	_, err := m.rw.Write(b)
	return err
}

// writeEncapsulated wraps inner records — one record layer write, a
// whole flight during a handshake — into an Encapsulated outer record
// for the given subchannel, framing into a reused scratch buffer (or
// the cork) so steady-state subchannel writes do not allocate.
func (m *mux) writeEncapsulated(sub uint8, inner []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.corked {
		return m.corkLocked(encapsulatedHeaderLen+len(inner), func(dst []byte) []byte {
			return appendEncapsulated(dst, sub, inner)
		})
	}
	m.encBuf = appendEncapsulated(m.encBuf[:0], sub, inner)
	_, err := m.rw.Write(m.encBuf)
	return err
}

// corkLocked appends n bytes of framed records (frame writes them) to
// the cork. The cork is flushed first when they would outgrow one
// record, and right after when they carry an alert — the peer learns
// why a handshake died, as it did uncorked — when a reader already
// waits on the peer (mux.readerStarved), or when the mux is dead.
func (m *mux) corkLocked(n int, frame func([]byte) []byte) error {
	if len(m.cork)+n > tls12.MaxRecordWireSize {
		if err := m.flushLocked(); err != nil {
			return err
		}
	}
	start := len(m.cork)
	m.cork = frame(m.cork)
	if m.dead.Load() || carriesAlert(m.cork[start:]) || m.idle.Load() && m.anyStarved() {
		return m.flushLocked()
	}
	return nil
}

// flushLocked writes the cork in one transport write. A write error
// fails the mux, so every reader hears of it, not only the goroutine
// whose wait released the cork.
func (m *mux) flushLocked() error {
	if m.werr != nil || len(m.cork) == 0 {
		return m.werr
	}
	_, err := m.rw.Write(m.cork)
	m.cork = m.cork[:0]
	if err != nil {
		m.werr = err
		m.fail(err)
	}
	return err
}

// readerStarved is called by a corked pipe whose reader found it
// empty, and by readLoop when it runs dry. If readLoop has nothing left
// to parse and a reader still waits, that reader waits on the peer, and
// no corked flight may wait with it. Both are looked at again under
// wmu: readLoop may have fed the reader meanwhile, and a flight corked
// since then would leave early, apart from the one it was to join.
func (m *mux) readerStarved() {
	if !m.corking.Load() || !m.idle.Load() {
		return // uncorked, or readLoop will look when it runs dry
	}
	m.wmu.Lock()
	if m.corked && m.idle.Load() && m.anyStarved() {
		m.flushLocked() //nolint:errcheck // flushLocked fails the mux
	}
	m.wmu.Unlock()
}

// anyStarved reports whether some pipe's reader waits for bytes only
// the peer can send.
func (m *mux) anyStarved() bool {
	if m.primary.starved() {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.subs {
		if p.starved() {
			return true
		}
	}
	return false
}

// flush releases what the cork holds now, and stays corked.
func (m *mux) flush() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if !m.corked {
		return nil
	}
	return m.flushLocked()
}

// uncork ends the cork at the end of key distribution: what it holds
// leaves in one write, and later writes go straight to the transport.
func (m *mux) uncork() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if !m.corked {
		return nil
	}
	err := m.flushLocked()
	m.endCorkLocked()
	return err
}

// dropCork ends the cork of a failed establish: what it holds never
// reaches the peer, and is wiped (it may carry key material).
func (m *mux) dropCork() {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if !m.corked {
		return
	}
	secmem.Wipe(m.cork)
	m.endCorkLocked()
}

// endCorkLocked ends the cork and detaches it from every pipe, so an
// established session's reads pay nothing for it. A pipe opened
// meanwhile either is in subs by now or saw corking false.
func (m *mux) endCorkLocked() {
	m.corked = false
	m.corking.Store(false)
	tls12.PutRecordBuf(m.cork)
	m.cork = nil
	m.primary.uncork()
	m.mu.Lock()
	for _, p := range m.subs {
		p.uncork()
	}
	m.mu.Unlock()
}

// carriesAlert reports whether a run of framed records holds an alert,
// looking inside Encapsulated records at the inner ones.
func carriesAlert(b []byte) bool {
	for len(b) >= tls12.RecordHeaderLen {
		n := tls12.RecordHeaderLen + int(binary.BigEndian.Uint16(b[3:5]))
		if n > len(b) {
			return false
		}
		switch tls12.ContentType(b[0]) {
		case tls12.TypeAlert:
			return true
		case tls12.TypeEncapsulated:
			if n > encapsulatedHeaderLen && carriesAlert(b[encapsulatedHeaderLen:n]) {
				return true
			}
		}
		b = b[n:]
	}
	return false
}

// encapsulatedHeaderLen is an Encapsulated record's framing: the record
// header and the subchannel ID.
const encapsulatedHeaderLen = tls12.RecordHeaderLen + 1

// appendEncapsulated appends to dst the Encapsulated record that
// carries inner on subchannel sub (paper §3.4, "Control Messaging").
// inner is a byte stream of whole inner records, at most
// tls12.MaxCiphertext-1 bytes: a record layer never writes more at once.
func appendEncapsulated(dst []byte, sub uint8, inner []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(tls12.TypeEncapsulated), byte(tls12.VersionTLS12>>8), byte(tls12.VersionTLS12&0xff), 0, 0, sub)
	dst = append(dst, inner...)
	binary.BigEndian.PutUint16(dst[start+3:start+5], uint16(1+len(inner)))
	return dst
}

// subchannel returns the pipe for a subchannel, creating it if needed.
// Newly created subchannels are announced on newSub when announce is
// set (i.e., creation was driven by the peer, not the local endpoint).
func (m *mux) subchannel(id uint8, announce bool) *pipeBuf {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.subs[id]; ok {
		return p
	}
	p := m.newPipe(func(b []byte) error { return m.writeEncapsulated(id, b) })
	m.subs[id] = p
	if m.closed {
		// Opened after the transport failed: the pipe starts failed too,
		// or its reader would wait for a feed that never comes.
		p.fail(m.err)
	} else if announce {
		select {
		case m.newSub <- id:
		default:
		}
	}
	return p
}

// readLoop demultiplexes inbound records until the transport fails. It
// parses through a reused buffer (feed copies what each pipe keeps), so
// demultiplexing itself allocates nothing per record.
//
// It keeps its goroutine although a reader could pull records off the
// transport itself and save a hand-off a turn: reading ahead is what a
// bulk receiver overlaps its record processing with, and a reader
// pulling for itself would hold the transport while another pipe's
// records wait. Demand-driven prototypes have measured a small gain on
// the one-record-a-turn workloads and a loss on bulk, none resolved
// (EXPERIMENTS.md, "The mux keeps its read goroutine").
func (m *mux) readLoop() {
	var err error
	rr := newRecordReader(m.rw)
	defer rr.release()
	for {
		if !rr.ready() && m.corking.Load() {
			// Every record read so far is fed: a reader still waiting
			// waits on the peer, and the cork must not hold its flight.
			m.idle.Store(true)
			m.readerStarved()
		}
		var raw tls12.RawRecord
		var wire []byte
		raw, wire, err = rr.next()
		if m.idle.Load() {
			m.idle.Store(false)
		}
		if err != nil {
			break
		}
		if raw.Type == tls12.TypeEncapsulated {
			if len(raw.Payload) < 1 {
				err = errors.New("core: empty Encapsulated record")
				break
			}
			sub := raw.Payload[0]
			m.subchannel(sub, true).feed(raw.Payload[1:])
			continue
		}
		// Everything else belongs to the primary session; hand the
		// full record (header included) to its record layer.
		m.primary.feed(wire)
	}
	// The flights still corked leave as they would have uncorked, so a
	// peer that hung up fails them and readers hear that write error,
	// not only the read's EOF. dead, set under wmu, sends every later
	// write straight to the transport.
	m.wmu.Lock()
	m.dead.Store(true)
	if m.corked {
		m.flushLocked() //nolint:errcheck // flushLocked fails the mux
	}
	m.wmu.Unlock()
	m.fail(err)
}

// fail tears down all pipes.
func (m *mux) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	m.dead.Store(true)
	m.mu.Lock()
	if !m.closed {
		m.closed, m.err = true, err
		close(m.newSub)
	}
	subs := make([]*pipeBuf, 0, len(m.subs))
	for _, p := range m.subs {
		subs = append(subs, p)
	}
	m.mu.Unlock()
	m.primary.fail(err)
	for _, p := range subs {
		p.fail(err)
	}
}
