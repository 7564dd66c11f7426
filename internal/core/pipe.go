package core

import (
	"io"
	"sync"

	"repro/internal/tls12"
)

// pipeBuf is a one-directional-read, function-backed-write byte stream.
// The mbTLS mux feeds demultiplexed record bytes into it with feed, and
// a tls12.RecordLayer reads from it as if it were a socket. Writes are
// redirected through writeFn, which the mux uses to wrap each written
// record into an Encapsulated outer record (paper §3.4, "Control
// Messaging").
type pipeBuf struct {
	mu   sync.Mutex
	cond sync.Cond // on mu
	// buf[start:] is the readable data. Consuming from the front moves
	// start instead of reslicing buf, so the backing array (and its
	// capacity) is reused once drained rather than leaked a prefix at a
	// time. The first feed draws it from pipeBufs (bp is the pool
	// token), and a drained pipe hands it back when it fails.
	buf   []byte
	bp    *[]byte
	start int
	err   error

	writeFn func([]byte) error
	// wrote is set once a write has reached writeFn's transport.
	wrote bool

	// cork, guarded by mu, is the mux that holds this pipe's writes
	// back while a session establishes, nil once it uncorks. It is told
	// (without mu) once each time a Read finds the pipe empty, before
	// it waits; waiting marks that Read until data or an error arrives.
	// The pair lets the mux release its cork the moment a reader waits
	// on the peer.
	cork    *mux
	waiting bool
}

// pipeBufs recycles pipe buffers across sessions: a pipe that grows
// from nil pays an allocation per size step at every session's start —
// handshake records first, then the first data record. A buffer keeps
// the capacity it grew to, so a recycled one seldom grows again. Like
// relayReadBufs, the buffers carry only record bytes a transport peer
// has seen.
var pipeBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, pipeBufStart)
		return &b
	},
}

const (
	// pipeBufStart is a fresh pooled buffer's capacity: a resumed
	// handshake flight.
	pipeBufStart = 1 << 10
	// pipeBufMaxPooled bounds what goes back to pipeBufs: a buffer a
	// reader let grow past a few records is left to the GC.
	pipeBufMaxPooled = 4 * tls12.MaxRecordWireSize
)

func newPipeBuf(writeFn func([]byte) error) *pipeBuf {
	p := &pipeBuf{writeFn: writeFn}
	p.cond.L = &p.mu
	return p
}

// Read blocks until data or an error is available.
func (p *pipeBuf) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.start == len(p.buf) {
		if p.err != nil {
			p.waiting = false
			p.releaseLocked()
			return 0, p.err
		}
		if m := p.cork; !p.waiting && m != nil {
			p.waiting = true
			p.mu.Unlock()
			m.readerStarved()
			p.mu.Lock()
			continue // data may have arrived meanwhile: nobody woke us
		}
		p.waiting = true
		p.cond.Wait()
	}
	p.waiting = false
	n := copy(b, p.buf[p.start:])
	p.start += n
	if p.start == len(p.buf) {
		p.buf = p.buf[:0]
		p.start = 0
		if p.err != nil {
			p.releaseLocked()
		}
	}
	return n, nil
}

// starved reports whether a reader is waiting on an empty pipe that can
// still deliver: one only the peer's next bytes would wake.
func (p *pipeBuf) starved() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiting && p.start == len(p.buf) && p.err == nil
}

// Write forwards the bytes through writeFn.
func (p *pipeBuf) Write(b []byte) (int, error) {
	if err := p.writeFn(b); err != nil {
		return 0, err
	}
	p.mu.Lock()
	p.wrote = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return len(b), nil
}

// Push sends what the pipe's cork holds back now (tls12's
// RecordLayer.Push asks for it).
func (p *pipeBuf) Push() error {
	p.mu.Lock()
	m := p.cork
	p.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.flush()
}

// uncork detaches the pipe from its mux's ended cork.
func (p *pipeBuf) uncork() {
	p.mu.Lock()
	p.cork = nil
	p.mu.Unlock()
}

// awaitWrite blocks until a write has passed writeFn, or the pipe fails
// first. Middleboxes use it to order their injected secondary
// ServerHello ahead of the forwarded primary ServerHello (paper §3.4:
// "inject their own secondary ServerHello ... and finally forward the
// primary ServerHello").
func (p *pipeBuf) awaitWrite() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.wrote && p.err == nil {
		p.cond.Wait()
	}
	if p.wrote {
		return nil
	}
	return p.err
}

// feed appends a copy of the received bytes for Read (b may alias a
// caller buffer that is reused immediately).
func (p *pipeBuf) feed(b []byte) {
	p.mu.Lock()
	if p.bp == nil && p.err == nil {
		p.bp = pipeBufs.Get().(*[]byte)
		p.buf = (*p.bp)[:0]
	}
	// Reclaim the consumed prefix when it dominates the buffer, keeping
	// growth amortized O(1) per byte without unbounded dead space.
	if p.start > 0 && p.start >= len(p.buf)-p.start {
		n := copy(p.buf, p.buf[p.start:])
		p.buf = p.buf[:n]
		p.start = 0
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// fail terminates the pipe; pending and future Reads return err (after
// buffered data drains). The buffer goes back to pipeBufs once the pipe
// is failed and drained, here or in the Read that drains it; a feed
// that races the failure (a middlebox relay still parsing while
// its session closes) appends to a fresh slice the GC takes.
func (p *pipeBuf) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	if p.start == len(p.buf) {
		p.releaseLocked()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// releaseLocked hands a failed, drained pipe's buffer back to pipeBufs.
func (p *pipeBuf) releaseLocked() {
	if p.bp == nil {
		return
	}
	if cap(p.buf) <= pipeBufMaxPooled {
		*p.bp = p.buf[:0]
		pipeBufs.Put(p.bp)
	}
	p.bp, p.buf, p.start = nil, nil, 0
}
