// Package netsim provides an in-memory network substrate: buffered
// duplex pipes with configurable one-way latency and bandwidth, a
// region-to-region topology for the paper's inter-datacenter latency
// experiment (Figure 6), and on-path filter entities modeling the
// firewalls and traffic normalizers of the handshake-viability
// experiment (Table 2).
//
// Unlike net.Pipe, writes are buffered: a Write returns once its bytes
// are queued and parks only at the flow-control window, so protocol
// code that sends best-effort messages (alerts, announcements) behaves
// as it would over a kernel TCP socket. Reads are a byte stream, as on
// a socket: one Read returns everything that has arrived, up to the
// caller's buffer, however the peer segmented its writes.
package netsim

import (
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
)

// ErrClosedPipe is returned for operations on a closed pipe end. It
// wraps io.ErrClosedPipe so protocol code can classify it with
// errors.Is without importing netsim.
var ErrClosedPipe = fmt.Errorf("netsim: closed pipe: %w", io.ErrClosedPipe)

// ErrReset is returned after Reset tears a connection down — the
// netsim analogue of a TCP RST. It wraps syscall.ECONNRESET so it
// classifies exactly like a kernel-reported reset.
var ErrReset = fmt.Errorf("netsim: connection reset: %w", syscall.ECONNRESET)

// mark is where one write ends in the stream (bytesIn after it) and
// when its bytes become readable.
type mark struct {
	end       int64
	deliverAt time.Time
}

// stream is one direction of a pipe: a byte ring holding the
// bytesIn-bytesOut unread bytes from ring[head], which grows to what is
// queued, and — on a link with latency or a bandwidth cap only — one
// mark per write still in flight. An ideal link keeps no marks and
// takes no timestamp: whatever is queued is readable.
type stream struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ring  []byte
	head  int
	marks []mark

	latency   time.Duration
	byteDelay time.Duration // per-byte transmission delay (0 = infinite bandwidth)
	lastAt    time.Time     // arrival time of the most recently queued write
	maxBuf    int64         // flow-control window: max unread bytes in flight

	rDeadline, wDeadline time.Time // bound the reader's and the writer's waits

	closed   bool // write side closed: EOF after drain
	broken   bool // reader gone: writes fail
	isReset  bool // connection reset: both sides fail, in-flight data discarded
	bytesIn  int64
	bytesOut int64
	clk      clock.Clock // the link's time base: marks, deadlines and waits read it
}

// defaultWindow is the per-direction flow-control window, playing the
// role of the TCP receive window: writers block once this many bytes
// are queued unread, so a fast sender cannot balloon memory.
const defaultWindow = 1 << 20

func newStream(clk clock.Clock, latency time.Duration, bitsPerSecond float64) *stream {
	s := &stream{clk: clk, latency: latency, maxBuf: defaultWindow}
	if bitsPerSecond > 0 {
		s.byteDelay = time.Duration(8 * float64(time.Second) / bitsPerSecond)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// wake is the timer side of waitUntil. It takes the lock so it cannot
// fire between the waiter's last check and its cond.Wait.
func (s *stream) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitUntil parks on the cond (mu held) until a write, read, close,
// reset or deadline change wakes it, or until t passes; the zero t
// sets no bound. It is the only way a stream operation waits, so every
// wait sees Reset, Close and its deadline.
func (s *stream) waitUntil(t time.Time) {
	if t.IsZero() {
		s.cond.Wait()
		return
	}
	timer := s.clk.AfterFunc(t.Sub(s.clk.Now()), s.wake)
	s.cond.Wait()
	timer.Stop()
}

// expired reports that a deadline is set and has passed.
func (s *stream) expired(deadline time.Time) bool {
	return !deadline.IsZero() && !s.clk.Now().Before(deadline)
}

func (s *stream) setDeadline(which *time.Time, t time.Time) {
	s.mu.Lock()
	*which = t
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *stream) write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Flow control: wait for window space (a write may overshoot the
	// window by up to its own size, like a final TCP segment).
	for !s.closed && !s.broken && s.bytesIn-s.bytesOut >= s.maxBuf {
		if s.expired(s.wDeadline) {
			return 0, errDeadline
		}
		s.waitUntil(s.wDeadline)
	}
	if s.closed || s.broken {
		if s.isReset {
			return 0, ErrReset
		}
		return 0, ErrClosedPipe
	}
	queued := int(s.bytesIn - s.bytesOut)
	if need := queued + len(p); need > len(s.ring) {
		// Grow to what is queued, not to a floor: most streams carry a
		// handshake's worth of bytes and never need more.
		grown := make([]byte, max(2*len(s.ring), need))
		s.peek(grown[:queued])
		s.ring, s.head = grown, 0
	}
	tail := (s.head + queued) % len(s.ring)
	n := copy(s.ring[tail:], p)
	copy(s.ring, p[n:])
	s.bytesIn += int64(len(p))
	if s.latency > 0 || s.byteDelay > 0 {
		arrive := s.clk.Now().Add(s.latency)
		if s.lastAt.After(arrive) {
			arrive = s.lastAt
		}
		arrive = arrive.Add(time.Duration(len(p)) * s.byteDelay)
		s.lastAt = arrive
		s.marks = append(s.marks, mark{end: s.bytesIn, deliverAt: arrive})
	}
	s.cond.Broadcast()
	return len(p), nil
}

// peek copies the first len(dst) queued bytes into dst.
func (s *stream) peek(dst []byte) {
	n := copy(dst, s.ring[s.head:])
	copy(dst[n:], s.ring)
}

// arrived returns how many queued bytes are readable now, or else when
// the first will be. Delivery times never decrease along the stream,
// so the writes already delivered merge into the last of them.
func (s *stream) arrived() (int, time.Time) {
	if len(s.marks) == 0 {
		return int(s.bytesIn - s.bytesOut), time.Time{}
	}
	now, i := s.clk.Now(), 0
	for i < len(s.marks) && !s.marks[i].deliverAt.After(now) {
		i++
	}
	if i == 0 {
		return 0, s.marks[0].deliverAt
	}
	s.marks = s.marks[i-1:]
	return int(s.marks[0].end - s.bytesOut), time.Time{}
}

func (s *stream) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.isReset {
			return 0, ErrReset
		}
		until := s.rDeadline
		if s.bytesIn > s.bytesOut {
			n, at := s.arrived()
			if n > 0 {
				p = p[:min(n, len(p))]
				s.peek(p)
				s.head = (s.head + len(p)) % len(s.ring)
				s.bytesOut += int64(len(p))
				if len(s.marks) > 0 && s.marks[0].end == s.bytesOut {
					s.marks = s.marks[1:]
				}
				if s.bytesOut == s.bytesIn {
					// Empty: later writes start contiguous, and a
					// closed stream will take none.
					s.head = 0
					if s.closed {
						s.ring = nil
					}
				}
				// Wake writers blocked on the flow-control window.
				s.cond.Broadcast()
				return len(p), nil
			}
			// In flight: wait out the latency, but no longer than the
			// deadline.
			if until.IsZero() || at.Before(until) {
				until = at
			}
		} else if s.closed {
			return 0, io.EOF
		} else if s.broken {
			return 0, ErrClosedPipe
		}
		if s.expired(s.rDeadline) {
			return 0, errDeadline
		}
		s.waitUntil(until)
	}
}

// closeWrite marks the write side closed; the reader sees EOF after
// draining in-flight data.
func (s *stream) closeWrite() {
	s.mu.Lock()
	s.closed = true
	if s.bytesIn == s.bytesOut {
		s.ring = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// breakRead marks the read side gone; writers fail immediately.
func (s *stream) breakRead() {
	s.mu.Lock()
	s.broken = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// reset abruptly kills the stream in both roles: readers and writers
// fail with ErrReset and any in-flight data is discarded.
func (s *stream) reset() {
	s.mu.Lock()
	s.isReset = true
	s.broken = true
	s.ring, s.marks = nil, nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

var errDeadline error = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// Addr is a trivial net.Addr naming a simulated node.
type Addr string

// Network returns the simulated network name.
func (Addr) Network() string { return "netsim" }

// String returns the node name.
func (a Addr) String() string { return string(a) }

// Conn is one end of a simulated connection.
type Conn struct {
	in, out *stream
	local   Addr
	remote  Addr
	mu      sync.Mutex
	closed  bool
}

var _ net.Conn = (*Conn)(nil)

// Read returns the bytes that have arrived — every queued byte whose
// write's delivery time has passed, up to len(p) — waiting for the
// first of them no longer than the read deadline.
func (c *Conn) Read(p []byte) (int, error) { return c.in.read(p) }

// Write queues bytes for delivery after the link latency. It returns
// without waiting for the reader unless the flow-control window is
// full; then it parks until the reader drains, the write deadline
// passes, or the connection is closed or reset.
func (c *Conn) Write(p []byte) (int, error) { return c.out.write(p) }

// Close closes both directions of this end.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.out.closeWrite()
	c.in.breakRead()
	return nil
}

// Reset abruptly tears the connection down in both directions — the
// netsim analogue of a TCP RST. Unlike Close, in-flight data is
// discarded and both ends' subsequent reads and writes fail with
// ErrReset instead of draining to a clean EOF.
func (c *Conn) Reset() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.out.reset()
	c.in.reset()
}

// LocalAddr returns the local node name.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the remote node name.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets the read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.in.setDeadline(&c.in.rDeadline, t)
	c.out.setDeadline(&c.out.wDeadline, t)
	return nil
}

// SetReadDeadline bounds how long a Read, pending or future, waits for
// bytes to arrive; bytes that have arrived are returned regardless.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(&c.in.rDeadline, t)
	return nil
}

// SetWriteDeadline bounds how long a Write, pending or future, parks
// at a full flow-control window; a Write that finds room succeeds
// regardless.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.out.setDeadline(&c.out.wDeadline, t)
	return nil
}

// Clock returns the link's clock, the time base of its deadlines.
func (c *Conn) Clock() clock.Clock { return c.in.clk }

// LinkConfig describes one simulated link.
type LinkConfig struct {
	// Latency is the one-way propagation delay in each direction.
	Latency time.Duration
	// Bandwidth is the link rate in bits per second; 0 means
	// unlimited.
	Bandwidth float64
	// Clock is the link's time base, read by its latency, pacing and
	// deadlines and by the parties on it (clock.Of); nil is wall time.
	Clock clock.Clock
	// NameA and NameB label the two ends.
	NameA, NameB string
}

// NewLink creates a duplex connection with the given characteristics.
func NewLink(cfg LinkConfig) (*Conn, *Conn) {
	if cfg.NameA == "" {
		cfg.NameA = "a"
	}
	if cfg.NameB == "" {
		cfg.NameB = "b"
	}
	clk := clock.Or(cfg.Clock)
	ab := newStream(clk, cfg.Latency, cfg.Bandwidth)
	ba := newStream(clk, cfg.Latency, cfg.Bandwidth)
	a := &Conn{in: ba, out: ab, local: Addr(cfg.NameA), remote: Addr(cfg.NameB)}
	b := &Conn{in: ab, out: ba, local: Addr(cfg.NameB), remote: Addr(cfg.NameA)}
	return a, b
}

// Pipe returns an unbuffered-latency, unlimited-bandwidth duplex pipe:
// a drop-in, non-blocking replacement for net.Pipe.
func Pipe() (*Conn, *Conn) {
	return NewLink(LinkConfig{})
}
