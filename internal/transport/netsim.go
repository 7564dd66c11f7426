package transport

import (
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/netsim"
)

// Netsim adapts a *netsim.Network to the Transport interface. Addrs
// are netsim node names. Dials originate from this transport's local
// node name suffixed with a per-dial sequence number, so fault and
// link policies keyed on the dialer name still work while each
// connection stays individually addressable.
type Netsim struct {
	net   *netsim.Network
	local string
	seq   atomic.Uint64
}

// NewNetsim returns a Transport over n whose outbound connections
// originate from the node named local.
func NewNetsim(n *netsim.Network, local string) *Netsim {
	return &Netsim{net: n, local: local}
}

// Name reports the backend name used in benchmark rows.
func (t *Netsim) Name() string { return "netsim" }

// Listen claims the node name addr on the simulated network.
func (t *Netsim) Listen(addr string) (net.Listener, error) {
	return t.net.Listen(addr)
}

// Dial connects from this transport's local node to addr. The dialing
// node name is local for the first dial and local#N after; netsim
// strips the #N suffix before policy lookups, so link and fault
// policies keyed on (local, addr) apply to every connection while each
// one stays individually addressable.
func (t *Netsim) Dial(addr string) (net.Conn, error) {
	from := t.local
	if n := t.seq.Add(1); n > 1 {
		from = fmt.Sprintf("%s#%d", t.local, n)
	}
	return t.net.Dial(from, addr)
}
