package netsim

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Network is an in-memory address space: nodes Listen on names and
// Dial each other, with per-link characteristics. It gives the
// experiment harnesses and tests the same Listen/Accept/Dial shape as
// real deployments use with TCP.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	// linkFor decides the characteristics of a new connection; nil
	// means a plain Pipe.
	linkFor func(from, to string) LinkConfig
	// faultFor decides the fault injected into a new connection; nil
	// (or a returned FaultNone spec) means a clean link.
	faultFor func(from, to string) FaultSpec
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*Listener)}
}

// SetLinkPolicy installs a function choosing link characteristics per
// (from, to) pair. Policies see the dialer's base node name: a
// per-connection "#N" suffix (appended by dialers such as
// transport.Netsim to keep each connection individually addressable)
// is stripped before the lookup, so a policy keyed on the configured
// pair applies to every connection from that node.
func (n *Network) SetLinkPolicy(f func(from, to string) LinkConfig) {
	n.mu.Lock()
	n.linkFor = f
	n.mu.Unlock()
}

// SetFaultPolicy installs a function choosing the fault injected into
// each new connection; a FaultNone spec means a clean link. In the
// resulting pair the dialer is end A, so DirAToB faults dialer→listener
// traffic. Like link policies, fault policies see the dialer's base
// node name with any per-connection "#N" suffix stripped.
func (n *Network) SetFaultPolicy(f func(from, to string) FaultSpec) {
	n.mu.Lock()
	n.faultFor = f
	n.mu.Unlock()
}

// Listen claims an address.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("netsim: address %q already in use", addr)
	}
	l := &Listener{
		network: n,
		addr:    addr,
		backlog: make(chan net.Conn, 64),
		closed:  make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// policyName strips a per-connection "#N" suffix from a dialer node
// name. Dialers that open several connections (transport.Netsim) make
// each one individually addressable as name#2, name#3, …; policies
// stay keyed on the configured base name so they apply to all of them.
func policyName(from string) string {
	if i := strings.LastIndexByte(from, '#'); i >= 0 {
		return from[:i]
	}
	return from
}

// Dial connects from a named node to a listening address.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[to]
	policy := n.linkFor
	faults := n.faultFor
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: connection refused: %q", to)
	}
	pfrom := policyName(from)
	cfg := LinkConfig{}
	if policy != nil {
		cfg = policy(pfrom, to)
	}
	cfg.NameA, cfg.NameB = from, to
	var client, server net.Conn = NewLink(cfg)
	if faults != nil {
		if spec := faults(pfrom, to); spec.Kind != FaultNone {
			client, server = WrapFaultPair(client, server, spec)
		}
	}
	if err := l.deliver(server); err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	return client, nil
}

// Listener accepts in-memory connections for one address.
type Listener struct {
	network *Network
	addr    string

	// mu serializes backlog delivery against Close, so a connection can
	// never be stranded in the backlog after Close has drained it.
	mu      sync.Mutex
	done    bool
	backlog chan net.Conn

	closeOnce sync.Once
	closed    chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// deliver hands a new connection to Accept, refusing cleanly if the
// listener closes first.
func (l *Listener) deliver(c net.Conn) error {
	refused := fmt.Errorf("netsim: connection refused: %q closed", l.addr)
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return refused
	}
	select {
	case l.backlog <- c:
		l.mu.Unlock()
		return nil
	default:
	}
	l.mu.Unlock()
	// Backlog full: wait outside the lock so Close stays responsive.
	full := make(chan struct{})
	defer clock.Of(c).AfterFunc(5*time.Second, func() { close(full) }).Stop()
	select {
	case l.backlog <- c:
		l.mu.Lock()
		defer l.mu.Unlock()
		if !l.done {
			return nil
		}
		// Close raced the send and already drained the backlog; pull a
		// queued conn back out so nothing is stranded, then refuse (the
		// caller closes c).
		select {
		case q := <-l.backlog:
			q.Close()
		default:
		}
		return refused
	case <-l.closed:
		return refused
	case <-full:
		return fmt.Errorf("netsim: accept backlog full at %q", l.addr)
	}
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	// Prefer reporting closure: after Close, anything still queued has
	// already been closed and is not worth handing out.
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close releases the address, unblocks pending Accepts, and closes any
// connections still queued in the backlog so their dialers see the
// failure instead of writing into a void.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		l.network.mu.Lock()
		delete(l.network.listeners, l.addr)
		l.network.mu.Unlock()
		l.mu.Lock()
		l.done = true
		close(l.closed)
		for {
			select {
			case c := <-l.backlog:
				c.Close()
				continue
			default:
			}
			break
		}
		l.mu.Unlock()
	})
	return nil
}

// Addr returns the listening address.
func (l *Listener) Addr() net.Addr { return Addr(l.addr) }
