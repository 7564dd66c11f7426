// Package transport abstracts how mbTLS bytes move between nodes. The
// session layer, the session host, and the daemons speak only to this
// interface; concrete byte movement is provided by two backends with
// deliberately identical semantics:
//
//   - the netsim backend (in-memory pipes with latency/bandwidth/fault
//     injection), used by the experiment harness and most tests, and
//   - the tcpx backend (real kernel TCP sockets: *net.TCPConn,
//     unwrapped), used by the daemons and the loopback-TCP benchmarks.
//
// # Conn contract
//
// Every net.Conn produced by a Transport — dialed or accepted — must
// satisfy the contract below. The conformance suite in
// internal/transport/conformancetest asserts each clause against both
// backends, so the backends cannot drift apart:
//
//   - Stream, not records. Read may return any prefix of the bytes
//     written by the peer, down to a single byte, regardless of how the
//     peer segmented its writes, and returns what has arrived: the
//     bytes of several finished Writes come back from one Read when the
//     buffer has room. Nothing above the transport may assume
//     record-aligned delivery; neither backend preserves write
//     boundaries.
//
//   - Deadlines. A Read that has to wait past the read deadline fails
//     with a net.Error whose Timeout() is true. Data already delivered
//     to the connection may still be returned after the deadline — the
//     deadline bounds waiting, not draining. Clearing the deadline
//     (SetReadDeadline(time.Time{})) restores blocking reads; the
//     connection remains usable after a timeout. Likewise a Write that
//     has to wait for a peer that is not reading (netsim's flow-control
//     window, the kernel's socket buffers) past the write deadline
//     fails with a Timeout() error and reports the n < len(p) bytes it
//     did send (netsim: none); after the deadline is cleared, later
//     Writes continue the stream right after those n bytes.
//
//   - Close vs. blocked I/O. Closing a connection unblocks that end's
//     own blocked Read and Write promptly; subsequent operations fail
//     with an error wrapping net.ErrClosed (tcpx), io.ErrClosedPipe
//     (netsim), or the transport's reset error — never a silent
//     success. Closing the peer lets the local reader drain everything
//     the peer wrote before Close, then observe io.EOF — the ordering
//     the record layer relies on for close_notify: the alert is
//     written, then the transport closed, and the peer must see the
//     alert before the EOF.
//
//   - Buffer ownership. Read(p) only ever writes into p and never
//     retains it. Write(p) does not retain p after returning; callers
//     may recycle the buffer (e.g. into tls12's record-buffer pool)
//     immediately.
//
// The contract is all there is: no backend offers a capability beyond
// net.Conn.
package transport

import "net"

// A Transport provides listeners and outbound connections for one
// backend. Addr strings are backend-scoped: node names for netsim,
// host:port for tcpx. Implementations must be safe for concurrent use.
type Transport interface {
	// Name identifies the backend ("netsim", "tcp") in benchmark
	// reports and logs.
	Name() string
	// Listen claims addr and returns a listener whose accepted conns
	// satisfy the package Conn contract.
	Listen(addr string) (net.Listener, error)
	// Dial opens a connection to addr satisfying the Conn contract.
	Dial(addr string) (net.Conn, error)
}

// BuffersWriter is unused; goes when benchmark/ reopens (the frozen
// benchmark/wrap.go names it). No conn implements it: a vectored write
// is net.Buffers.WriteTo, which an unwrapped *net.TCPConn turns into
// writev with no capability interface.
type BuffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// Corker is unused; goes when benchmark/ reopens (the frozen
// benchmark/wrap.go names it). No conn implements it.
type Corker interface {
	Cork() error
	Uncork() error
}
