package chain

import (
	"fmt"
	"net"
	"runtime"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/tcpx"
)

// Transport backend names accepted by the -transport bench flag.
const (
	TransportNetsim = "netsim"
	TransportTCP    = "tcp"
)

// Fabric is the byte-moving backend a chain is built on, and the only
// place the transport name is interpreted. It serves both shapes:
// listeners with dialers for hosted chains, and raw connected pairs
// (Pair is a Link) for bare ones. Netsim keeps a private named-node
// network; tcp crosses the kernel on loopback exactly as a deployment
// would.
type Fabric struct {
	// Name is the backend's transport name.
	Name string
	// Sim is the netsim backend's network (fault policies hang off it);
	// nil on tcp.
	Sim *netsim.Network
	tcp *tcpx.Transport // tcp backend; nil on netsim
	// pairLn is the tcp listener Pair accepts on, bound on first use.
	pairLn net.Listener
}

// NewFabric selects the backend.
func NewFabric(trName string) (*Fabric, error) {
	switch trName {
	case "", TransportNetsim:
		return &Fabric{Name: TransportNetsim, Sim: netsim.NewNetwork()}, nil
	case TransportTCP:
		return &Fabric{Name: TransportTCP, tcp: tcpx.New(tcpx.Config{ReusePort: true})}, nil
	default:
		return nil, fmt.Errorf("chain: unknown transport %q (want %s or %s)",
			trName, TransportNetsim, TransportTCP)
	}
}

// Listen binds the listeners of the host called node and returns them
// with the address dialers reach it at. Netsim claims the node name;
// tcp binds one SO_REUSEPORT loopback listener per core, so the kernel
// spreads connections over that many accept loops.
func (f *Fabric) Listen(node string) ([]net.Listener, string, error) {
	if f.Sim != nil {
		ln, err := f.Sim.Listen(node)
		if err != nil {
			return nil, "", err
		}
		return []net.Listener{ln}, node, nil
	}
	lns, err := f.tcp.ListenShards("127.0.0.1:0", runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, "", err
	}
	return lns, lns[0].Addr().String(), nil
}

// Dialer returns a dial func from the node called from to addr (as
// returned by Listen).
func (f *Fabric) Dialer(from, addr string) func() (net.Conn, error) {
	var tr transport.Transport = f.tcp
	if f.Sim != nil {
		tr = transport.NewNetsim(f.Sim, from)
	}
	return func() (net.Conn, error) { return tr.Dial(addr) }
}

// Pair is the fabric's Link: two connected conns, a direct in-memory
// pipe on netsim, a real dial + accept on tcp.
func (f *Fabric) Pair(int) (net.Conn, net.Conn, error) {
	if f.Sim != nil {
		return Pipes(0)
	}
	if f.pairLn == nil {
		ln, err := f.tcp.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		f.pairLn = ln
	}
	// The kernel completes the handshake into the listener's backlog, so
	// the dial need not wait for the accept.
	c, err := f.tcp.Dial(f.pairLn.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	s, err := f.pairLn.Accept()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, s, nil
}

// Close releases what the fabric itself bound; listeners handed out by
// Listen belong to the hosts serving them.
func (f *Fabric) Close() {
	if f.pairLn != nil {
		f.pairLn.Close()
	}
}
