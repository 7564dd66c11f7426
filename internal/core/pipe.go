package core

import (
	"io"
	"sync"
)

// pipeBuf is a one-directional-read, function-backed-write byte stream.
// The mbTLS mux feeds demultiplexed record bytes into it with feed, and
// a tls12.RecordLayer reads from it as if it were a socket. Writes are
// redirected through writeFn, which the mux uses to wrap each written
// record into an Encapsulated outer record (paper §3.4, "Control
// Messaging").
type pipeBuf struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf[start:] is the readable data. Consuming from the front moves
	// start instead of reslicing buf, so the backing array (and its
	// capacity) is reused once drained rather than leaked a prefix at a
	// time.
	buf   []byte
	start int
	err   error

	writeFn func([]byte) error
	// wrote is set once a write has reached writeFn's transport.
	wrote bool
}

func newPipeBuf(writeFn func([]byte) error) *pipeBuf {
	p := &pipeBuf{writeFn: writeFn}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Read blocks until data or an error is available.
func (p *pipeBuf) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.start == len(p.buf) {
		if p.err != nil {
			return 0, p.err
		}
		p.cond.Wait()
	}
	n := copy(b, p.buf[p.start:])
	p.start += n
	if p.start == len(p.buf) {
		p.buf = p.buf[:0]
		p.start = 0
	}
	return n, nil
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

// awaitWrite blocks until a write has reached the transport, or the
// pipe fails first. Middleboxes use it to order their injected secondary
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
// buffered data drains).
func (p *pipeBuf) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
