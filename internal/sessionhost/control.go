package sessionhost

import (
	"net"
	"sync/atomic"

	"repro/internal/core"
)

// session is one registered connection's lifecycle record.
type session struct {
	id   uint64
	host *Host
	conn net.Conn

	state  atomic.Int32 // State
	gated  atomic.Bool  // holds a handshake-gate slot
	closer atomic.Value // func(): handler-registered force-closer
}

// transition moves the session from one state to another if it is
// still in from, keeping the host's handshakes-in-flight gauge equal to
// the number of sessions in StateHandshaking.
func (s *session) transition(from, to State) bool {
	if !s.state.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	if from == StateHandshaking {
		s.host.handshaking.Add(-1)
	}
	return true
}

// markDraining moves a live session into StateDraining.
func (s *session) markDraining() {
	for {
		cur := State(s.state.Load())
		if cur == StateClosed || cur == StateDraining || s.transition(cur, StateDraining) {
			return
		}
	}
}

// releaseGate returns the session's handshake-gate slot, if it holds
// one. Called on establishment (the expensive phase is over) and again
// unconditionally at teardown; the CAS makes the release exactly-once.
func (s *session) releaseGate() {
	if s.gated.CompareAndSwap(true, false) {
		<-s.host.gate
	}
}

// forceClose ends the session at the drain deadline: the handler's
// registered closer runs first (sealing a close_notify when the
// session has hop or session keys to seal under), then the transport
// drops, which unwinds the handler goroutine either way.
func (s *session) forceClose() {
	if f, ok := s.closer.Load().(func()); ok && f != nil {
		f()
	}
	s.conn.Close()
}

// Control is a handler's interface back to the hosting runtime. It
// implements core.HostHooks, so a middlebox handler can pass it
// straight to Middlebox.HandleHosted.
type Control struct {
	s *session
}

var _ core.HostHooks = (*Control)(nil)

// SessionEstablished implements core.HostHooks: the session finished
// establishing (handshaking → established). A session already marked
// draining or closed keeps that state. Establishment releases the
// session's handshake-gate slot.
func (c *Control) SessionEstablished() {
	c.s.transition(StateHandshaking, StateEstablished)
	c.s.releaseGate()
}

// RegisterForceClose implements core.HostHooks: f is invoked if the
// session is still alive at a drain deadline. Later registrations
// replace earlier ones.
func (c *Control) RegisterForceClose(f func()) {
	if f != nil {
		c.s.closer.Store(f)
	}
}

// Draining returns a channel closed when the host begins draining;
// long-running handlers select on it to stop accepting new work.
func (c *Control) Draining() <-chan struct{} { return c.s.host.drainCh }

// ReportStats folds a finished session's endpoint counters into the
// host's lock-free aggregate (TeardownReason, a per-session string,
// is not aggregated).
func (c *Control) ReportStats(st core.SessionStats) {
	h := c.s.host
	h.recordsRelayed.Add(st.RecordsRelayed)
	h.reseals.Add(st.Reseals)
	h.faultsObserved.Add(st.FaultsObserved)
	h.resumedPrimary.Add(st.ResumedPrimary)
	h.resumedHops.Add(st.ResumedHops)
	h.attestSessions.Add(st.AttestSessions)
	h.proxySigSessions.Add(st.ProxySigSessions)
}
