package core

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

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
type mux struct {
	rw io.ReadWriter

	wmu sync.Mutex
	// encBuf is the Encapsulated-framing scratch buffer, guarded by wmu.
	encBuf []byte

	primary *pipeBuf

	mu     sync.Mutex
	subs   map[uint8]*pipeBuf
	closed bool
	// newSub delivers IDs of subchannels opened by the peer side.
	newSub chan uint8
}

func newMux(rw io.ReadWriter) *mux {
	m := &mux{rw: rw, subs: make(map[uint8]*pipeBuf), newSub: make(chan uint8, maxSubchannels)}
	m.primary = newPipeBuf(m.writeRaw)
	go m.readLoop()
	return m
}

// writeRaw writes pre-framed record bytes straight to the transport.
func (m *mux) writeRaw(b []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	_, err := m.rw.Write(b)
	return err
}

// writeEncapsulated wraps inner records — one record layer write, a
// whole flight during a handshake — into an Encapsulated outer record
// for the given subchannel, framing into a reused scratch buffer so
// steady-state subchannel writes do not allocate.
func (m *mux) writeEncapsulated(sub uint8, inner []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.encBuf = appendEncapsulated(m.encBuf[:0], sub, inner)
	_, err := m.rw.Write(m.encBuf)
	return err
}

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
	p := newPipeBuf(func(b []byte) error { return m.writeEncapsulated(id, b) })
	m.subs[id] = p
	if announce && !m.closed {
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
func (m *mux) readLoop() {
	var err error
	rr := newRecordReader(m.rw)
	defer rr.release()
	for {
		var raw tls12.RawRecord
		var wire []byte
		raw, wire, err = rr.next()
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
	m.fail(err)
}

// fail tears down all pipes.
func (m *mux) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	m.mu.Lock()
	if !m.closed {
		m.closed = true
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
