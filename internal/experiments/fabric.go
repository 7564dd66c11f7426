package experiments

import (
	"fmt"
	"net"

	"repro/internal/netsim"
	"repro/internal/tls12"
	"repro/internal/transport"
	"repro/internal/transport/tcpx"
)

// Transport backend names accepted by the -transport bench flag.
const (
	TransportNetsim = "netsim"
	TransportTCP    = "tcp"
)

// fabric is the byte-moving backend a bench topology is built on, and
// the only place the transport name is interpreted. It serves both
// shapes the benches need: listeners with dialers for hosted chains
// (the chain sweeps) and raw connected pairs (fig7's per-stream hops).
// Netsim keeps a private named-node network; tcp crosses the kernel on
// loopback exactly as a deployment would.
type fabric struct {
	name string
	sim  *netsim.Network // netsim backend; nil on tcp
	tcp  *tcpx.Transport // tcp backend; nil on netsim
	// pairLn is the tcp listener pair() accepts on, bound on first use.
	pairLn net.Listener
}

// newFabric selects the backend. pool (optional) supplies the tcp
// backend's read buffers, so a host-scoped pool bounds them too.
func newFabric(trName string, pool *tls12.RecordBufPool) (*fabric, error) {
	switch trName {
	case "", TransportNetsim:
		return &fabric{name: TransportNetsim, sim: netsim.NewNetwork()}, nil
	case TransportTCP:
		return &fabric{name: TransportTCP, tcp: tcpx.New(tcpx.Config{ReusePort: true, Pool: pool})}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown transport %q (want %s or %s)",
			trName, TransportNetsim, TransportTCP)
	}
}

// listen binds the listeners of the host called node and returns them
// with the address dialers reach it at. Netsim claims the node name;
// tcp binds one SO_REUSEPORT loopback listener per shard, so kernel
// connection spreading pairs with the sharded admission path.
func (f *fabric) listen(node string, shards int) ([]net.Listener, string, error) {
	if f.sim != nil {
		ln, err := f.sim.Listen(node)
		if err != nil {
			return nil, "", err
		}
		return []net.Listener{ln}, node, nil
	}
	lns, err := f.tcp.ListenShards("127.0.0.1:0", shards)
	if err != nil {
		return nil, "", err
	}
	return lns, lns[0].Addr().String(), nil
}

// dialer returns a dial func from the node called from to addr (as
// returned by listen).
func (f *fabric) dialer(from, addr string) func() (net.Conn, error) {
	var tr transport.Transport = f.tcp
	if f.sim != nil {
		tr = transport.NewNetsim(f.sim, from)
	}
	return func() (net.Conn, error) { return tr.Dial(addr) }
}

// pair returns two connected conns (local end first): a direct
// in-memory pipe on netsim, a real dial + accept on tcp.
func (f *fabric) pair() (net.Conn, net.Conn, error) {
	if f.sim != nil {
		a, b := netsim.Pipe()
		return a, b, nil
	}
	if f.pairLn == nil {
		ln, err := f.tcp.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		f.pairLn = ln
	}
	type res struct {
		c   net.Conn
		err error
	}
	accepted := make(chan res, 1)
	go func() {
		c, err := f.pairLn.Accept()
		accepted <- res{c, err}
	}()
	c, err := f.tcp.Dial(f.pairLn.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	r := <-accepted
	if r.err != nil {
		c.Close()
		return nil, nil, r.err
	}
	return c, r.c, nil
}

// Close releases what the fabric itself bound; listeners handed out by
// listen belong to the hosts serving them.
func (f *fabric) Close() {
	if f.pairLn != nil {
		f.pairLn.Close()
	}
}
