package sessionhost

// Draining returns a channel closed when drain begins.
func (h *Host) Draining() <-chan struct{} { return h.drainCh }

// ID returns the session's registry ID: unique on the host and
// strictly increasing in admission order.
func (c *Control) ID() uint64 { return c.s.id }

// State returns the session's current lifecycle state.
func (c *Control) State() State { return State(c.s.state.Load()) }

// String names the state.
func (s State) String() string {
	switch s {
	case StateHandshaking:
		return "handshaking"
	case StateEstablished:
		return "established"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return "state(?)"
}
