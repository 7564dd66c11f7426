// Package tcpx is the real-socket transport backend: kernel TCP, as the
// paper's prototype ran it. Listeners and Dial hand out plain
// *net.TCPConn — Go sets TCP_NODELAY on every TCP connection, which is
// what a record layer that does its own coalescing wants — so the
// connection has one read path (the caller's buffer) and one write
// path (Write). Every bulk reader above it (the relay's and the mux's
// recordReader, the transparent splice) already offers the kernel a
// buffer larger than a wire record, so a user-space read buffer here
// would only be bypassed.
//
// What the package adds to net is optional SO_REUSEPORT listeners, so
// a sessionhost can run several accept loops on the same address with
// the kernel spreading connections across them.
package tcpx

import (
	"net"

	"repro/internal/tls12"
)

// Config shapes the transport. The zero value is production defaults.
type Config struct {
	// ReusePort sets SO_REUSEPORT on listeners, letting ListenShards
	// bind n listeners on the same address. Ignored (with a single
	// shared listener as fallback) where unsupported.
	ReusePort bool
	// Pool is unused; goes when benchmark/ reopens (the frozen module
	// sets it). The transport keeps no buffers.
	Pool *tls12.RecordBufPool
}

// Transport implements transport.Transport over kernel TCP sockets.
type Transport struct {
	cfg Config
}

// New returns a TCP transport with the given config.
func New(cfg Config) *Transport { return &Transport{cfg: cfg} }

// Default returns a TCP transport with production defaults.
func Default() *Transport { return New(Config{}) }

// Name reports the backend name used in benchmark rows.
func (t *Transport) Name() string { return "tcp" }

// Listen binds addr (host:port; ":0" picks a free port); accepted
// connections are *net.TCPConn.
func (t *Transport) Listen(addr string) (net.Listener, error) {
	return listenTCP(addr, t.cfg.ReusePort)
}

// ListenShards binds n listeners on the same addr when SO_REUSEPORT is
// enabled and supported, so a sessionhost can run n accept loops
// (sessionhost.Host.ServeListeners) with kernel-level connection
// spreading. Without reuseport (or on platforms lacking it) it returns
// a single listener; callers must size their accept loops by the
// returned slice, not by n. For a wildcard port (":0"), the first bind
// picks the port and the rest bind the same one. The name renames to
// say "n listeners" when benchmark/ reopens (the frozen module calls
// it).
func (t *Transport) ListenShards(addr string, n int) ([]net.Listener, error) {
	if n < 1 || !t.cfg.ReusePort || !reusePortSupported {
		n = 1
	}
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := t.Listen(addr)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		if i == 0 {
			addr = ln.Addr().String() // pin a wildcard port for the rest
		}
	}
	return lns, nil
}

// Dial connects to addr; the connection is a *net.TCPConn.
func (t *Transport) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
