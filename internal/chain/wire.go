package chain

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/netsim"
)

// Link builds the transport of one hop and returns its two ends, the
// one nearer the client first. Hop 0 leaves the client; hop n (for n
// middleboxes) reaches the server. It is the one place a chain's
// network plugs in: region latency, client-network filters, seeded
// faults, adversary tamper points, kernel sockets.
type Link func(hop int) (down, up net.Conn, err error)

// Pipes is the default Link: an in-memory netsim pipe per hop.
func Pipes(int) (net.Conn, net.Conn, error) {
	a, b := netsim.Pipe()
	return a, b, nil
}

// ClientHop is the Link of a client behind a particular network: hop 0
// is what first returns, every other hop a pipe.
func ClientHop(first func() (down, up net.Conn)) Link {
	return func(hop int) (net.Conn, net.Conn, error) {
		if hop > 0 {
			return Pipes(hop)
		}
		down, up := first()
		return down, up, nil
	}
}

// Chain is a wired path: the ends the client and the server take, with
// every middlebox between them relaying.
type Chain struct {
	Client, Server net.Conn

	conns   []net.Conn
	handles sync.WaitGroup
}

// Wire joins mbs, client side first, with one link per hop (Pipes when
// nil) and starts each middlebox's Handle; a middlebox may serve many
// chains at once. When a link fails, the hops already built are closed
// and nothing is left running.
func Wire(link Link, mbs ...*core.Middlebox) (*Chain, error) {
	if link == nil {
		link = Pipes
	}
	c := &Chain{}
	for hop := 0; hop <= len(mbs); hop++ {
		down, up, err := link(hop)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chain: hop %d: %w", hop, err)
		}
		c.conns = append(c.conns, down, up)
	}
	for i, mb := range mbs {
		c.handles.Add(1)
		go func() {
			defer c.handles.Done()
			mb.Handle(c.conns[2*i+1], c.conns[2*i+2]) //nolint:errcheck
		}()
	}
	c.Client, c.Server = c.conns[0], c.conns[len(c.conns)-1]
	return c, nil
}

// Chain builds one middlebox per config (see Middlebox) and wires them.
func (p *PKI) Chain(link Link, cfgs ...core.MiddleboxConfig) (*Chain, error) {
	mbs := make([]*core.Middlebox, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if mbs[i], err = p.Middlebox(cfg); err != nil {
			return nil, err
		}
	}
	return Wire(link, mbs...)
}

// Close closes every hop and returns once every Handle has. Sessions
// over the chain go first if their orderly shutdown matters. Idempotent.
func (c *Chain) Close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.handles.Wait()
}

// Establish runs Dial over clientEnd and Accept over serverEnd
// concurrently and returns both sessions. When either side fails, both
// transports are closed so the other unwinds, a session the other side
// did establish is closed, and the error joins what each side reported
// on one line (errors.Is/As see through it).
func Establish(clientEnd, serverEnd net.Conn, ccfg *core.ClientConfig, scfg *core.ServerConfig) (client, server *core.Session, err error) {
	abort := func() {
		clientEnd.Close()
		serverEnd.Close()
	}
	var serr error
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		if server, serr = core.Accept(serverEnd, scfg); serr != nil {
			abort()
		}
	}()
	client, cerr := core.Dial(clientEnd, ccfg)
	if cerr != nil {
		abort()
	}
	<-accepted
	switch {
	case cerr == nil && serr == nil:
		return client, server, nil
	case serr == nil:
		server.Close()
		return nil, nil, fmt.Errorf("client: %w", cerr)
	case cerr == nil:
		client.Close()
		return nil, nil, fmt.Errorf("server: %w", serr)
	}
	return nil, nil, fmt.Errorf("client: %w; server: %w", cerr, serr)
}

// echoBufs pools Echo's 64 KiB buffers: one allocated (and zeroed) per
// session was a measurable slice of bench CPU that said nothing about
// the protocol under test.
var echoBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

// Echo is the origin application every chain shares: it echoes what it
// reads back to the peer until the session ends.
func Echo(s *core.Session) error {
	bp := echoBufs.Get().(*[]byte)
	defer echoBufs.Put(bp)
	buf := *bp
	for {
		nr, err := s.Read(buf)
		if err != nil {
			return err
		}
		if _, err := s.Write(buf[:nr]); err != nil {
			return err
		}
	}
}
