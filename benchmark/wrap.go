package main

import (
	"crypto/ecdh"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tls12"
	"repro/internal/transport"
)

// The types in this file are how the traced run sees inside the chain
// without touching it: they wrap the interfaces the configs already
// accept (net.Conn and net.Listener via the dial funcs and listeners,
// tls12.KeyShareSource, tls12.ChainCache, tls12.TicketKeySource,
// core.Processor) and forward every call.

// opRef names the operation a generator goroutine is running: its
// ordinal and the ID of its root span. The generator owns it and, on a
// long-lived session, advances it per chunk or round trip.
type opRef struct {
	op   atomic.Uint64
	root atomic.Uint64
}

func (r *opRef) resolve() (op, root uint64) { return r.op.Load(), r.root.Load() }

// resolver reports the operation a connection is carrying right now.
// The client's connections resolve through the generator's opRef; the
// middlebox's upstream connection resolves through its downstream one;
// accepted connections find their dialer's resolver by connection
// identity. Spans recorded at the middlebox and the origin therefore
// carry the same ordinal, and hang off the same root span, as the
// client's.
type resolver func() (op, root uint64)

// tracedConn times and counts every Read and Write of one connection.
type tracedConn struct {
	net.Conn
	t *tracer
	// tab is chain.conns: a dialer's local address → its resolver. An
	// accepted connection's remote address is that same string, on
	// netsim (node name with its per-dial #N) and on TCP (ip:port) alike.
	tab  *sync.Map
	key  string // the dial side's address in tab
	dial bool   // this end registered key and removes it on Close
	res  atomic.Pointer[resolver]

	rbuf, wbuf *spanBuf
	closeOnce  sync.Once
}

// opref resolves the connection's operation. An accepted connection
// may be wrapped before its dialer has registered, so the lookup is
// repeated until it succeeds; the dialer registers before it writes,
// so any Read that returned data finds it.
func (c *tracedConn) opref() (op, root uint64) {
	r := c.res.Load()
	if r == nil {
		v, ok := c.tab.Load(c.key)
		if !ok {
			return 0, 0
		}
		found := v.(resolver)
		r = &found
		c.res.Store(r)
	}
	return (*r)()
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	op, root := c.opref()
	c.t.record(c.rbuf, lTransportRead, c.t.id(), root, op, start, c.t.now())
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	op, root := c.opref()
	c.t.record(c.wbuf, lTransportWrite, c.t.id(), root, op, start, c.t.now())
	c.t.wrote(int64(n), false)
	return n, err
}

func (c *tracedConn) Close() error {
	c.closeOnce.Do(func() {
		if c.dial {
			c.tab.Delete(c.key)
		}
		c.t.put(c.rbuf)
		c.t.put(c.wbuf)
	})
	return c.Conn.Close()
}

// vectored is what a tcpx connection offers beyond net.Conn.
type vectored interface {
	transport.BuffersWriter
	transport.Corker
}

// tracedVecConn is tracedConn for a connection with the vectored write
// path. The record layer picks writev by type assertion, so a wrapper
// without these methods would silently move the traced run onto the
// plain Write path, and one that always had them would do the reverse
// on netsim.
type tracedVecConn struct {
	*tracedConn
	vec vectored
}

func (c *tracedVecConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	start := c.t.now()
	n, err := c.vec.WriteBuffers(bufs)
	op, root := c.opref()
	c.t.record(c.wbuf, lTransportWrite, c.t.id(), root, op, start, c.t.now())
	c.t.wrote(n, true)
	return n, err
}

func (c *tracedVecConn) Cork() error   { return c.vec.Cork() }
func (c *tracedVecConn) Uncork() error { return c.vec.Uncork() }

// wrapConn wraps one end of a connection. The dialing end passes the
// resolver to publish under its local address; the accepting end
// passes nil and looks its dialer up under its remote address.
func (ch *chain) wrapConn(c net.Conn, res resolver) net.Conn {
	tc := &tracedConn{Conn: c, t: ch.tr, tab: &ch.conns, rbuf: ch.tr.get(), wbuf: ch.tr.get()}
	if res != nil {
		tc.key, tc.dial = c.LocalAddr().String(), true
		tc.res.Store(&res)
		ch.conns.Store(tc.key, res)
	} else {
		tc.key = c.RemoteAddr().String()
	}
	if v, ok := c.(vectored); ok {
		return &tracedVecConn{tracedConn: tc, vec: v}
	}
	return tc
}

// resolverOf returns the resolver of a connection wrapConn produced:
// what handlers parent their spans on and hand to the next hop's dial.
func resolverOf(c net.Conn) resolver {
	switch tc := c.(type) {
	case *tracedConn:
		return tc.opref
	case *tracedVecConn:
		return tc.opref
	}
	return func() (uint64, uint64) { return 0, 0 }
}

// tracedListener wraps accepted connections.
type tracedListener struct {
	net.Listener
	ch *chain
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ch.wrapConn(c, nil), nil
}

// timedKeyShares times the KeyShareSource handed to the middlebox and
// the origin.
type timedKeyShares struct {
	tls12.KeyShareSource
	t *tracer
}

func (k *timedKeyShares) X25519KeyShare() (*ecdh.PrivateKey, []byte, error) {
	start := k.t.now()
	priv, pub, err := k.KeyShareSource.X25519KeyShare()
	k.t.record(nil, lKeyShare, 0, 0, 0, start, k.t.now())
	return priv, pub, err
}

// timedChainCache times the client's ChainCache; a miss's time includes
// the verification it ran.
type timedChainCache struct {
	tls12.ChainCache
	t    *tracer
	hits atomic.Int64
}

func (c *timedChainCache) Do(key [32]byte, verify func() error) (bool, error) {
	start := c.t.now()
	cached, err := c.ChainCache.Do(key, verify)
	c.t.record(nil, lChainVerify, 0, 0, 0, start, c.t.now())
	if cached && c.t.active.Load() {
		c.hits.Add(1)
	}
	return cached, err
}

// countedTicketKeys counts calls into a TicketKeySource.
type countedTicketKeys struct {
	tls12.TicketKeySource
	t     *tracer
	calls atomic.Int64
}

func (k *countedTicketKeys) SealKey() [32]byte {
	if k.t.active.Load() {
		k.calls.Add(1)
	}
	return k.TicketKeySource.SealKey()
}

func (k *countedTicketKeys) OpenKeys() [][32]byte {
	if k.t.active.Load() {
		k.calls.Add(1)
	}
	return k.TicketKeySource.OpenKeys()
}

// timedProcessor times the middlebox's per-session Processor.
type timedProcessor struct {
	core.Processor
	t *tracer
}

func (p *timedProcessor) Process(dir core.Direction, chunk []byte) ([]byte, error) {
	start := p.t.now()
	out, err := p.Processor.Process(dir, chunk)
	p.t.record(nil, lProcess, 0, 0, 0, start, p.t.now())
	return out, err
}
