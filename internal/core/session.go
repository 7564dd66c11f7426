package core

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/tls12"
)

// SessionStats is the observable counter surface of one party's view
// of a session chain: how much it moved, what it resealed, what went
// wrong, and why the session ended. Endpoints expose it via
// Session.Stats; the middlebox aggregate lives in MiddleboxStats.
// Every field is a deterministic function of the traffic (and, under
// injected faults, of the fault seed) — never of batch boundaries or
// goroutine scheduling — so a seeded fault run reproduces its stats
// exactly.
type SessionStats struct {
	// RecordsRelayed counts records crossing this party's record
	// layer, both directions.
	RecordsRelayed int64
	// Reseals counts records opened under one hop key and resealed
	// under another. Always zero at an endpoint; populated for
	// middleboxes.
	Reseals int64
	// FaultsObserved counts fault-classified errors observed (at most
	// one per session at an endpoint: the one that killed it).
	FaultsObserved int64
	// TeardownReason classifies the error that ended the session
	// (ClassifyError vocabulary, e.g. "clean_close",
	// "remote_alert:bad_record_mac"); empty while the session lives.
	TeardownReason string
	// ResumedPrimary counts primary handshakes resumed from a session
	// ticket (0 or 1 at an endpoint).
	ResumedPrimary int64
	// ResumedHops counts secondary handshakes resumed from chain-ticket
	// hop tickets.
	ResumedHops int64
	// AttestSessions and ProxySigSessions count sessions by negotiated
	// accountability mode (0 or 1 at an endpoint; the session-host
	// aggregate sums them across sessions).
	AttestSessions   int64
	ProxySigSessions int64
}

// Session is an established mbTLS session from an endpoint's
// perspective. It carries application data over the primary session's
// connection, whose record layer holds either the end-to-end session
// keys (no middleboxes on this side) or the endpoint's adjacent per-hop
// keys.
type Session struct {
	conn      *tls12.Conn
	m         *mux
	transport net.Conn
	mboxes    []MiddleboxSummary

	// Accountability state, fixed at establishment time: the mode the
	// session ran, and (proxysig only) the close-time audit obligation.
	acct  Accountability
	audit *sessionAudit

	// Fast-path provenance, fixed at establishment time.
	resumedPrimary bool
	resumedHops    int

	faults   atomic.Int64
	teardown atomic.Pointer[string]
}

// noteErr records the first teardown-worthy error; fault-classified
// ones also count toward FaultsObserved. Only the first error is
// recorded, so the stats are independent of how many reads race in
// after the session dies.
func (s *Session) noteErr(err error) {
	cls := ClassifyError(err)
	if cls == ClassOK {
		return
	}
	reason := describeTeardown(err)
	if s.teardown.CompareAndSwap(nil, &reason) && cls.isFault() {
		s.faults.Add(1)
	}
}

// Read reads application data.
func (s *Session) Read(p []byte) (int, error) {
	n, err := s.conn.Read(p)
	if err != nil {
		s.noteErr(err)
	}
	return n, err
}

// Write writes application data.
func (s *Session) Write(p []byte) (int, error) {
	n, err := s.conn.Write(p)
	if err != nil {
		s.noteErr(err)
	}
	return n, err
}

// Close settles the session's accountability audit (proxysig: collect
// and verify each hop's signed evidence, then wipe the delegation
// key), sends close_notify, and closes the transport. An
// accountability failure is reported in preference to transport close
// errors: the session still tears down, but Close returns the
// AccountabilityError and the teardown reason records it.
func (s *Session) Close() error {
	evErr := s.collectEvidence()
	if evErr != nil {
		s.noteErr(evErr)
	}
	local := ClassCleanClose.String()
	s.teardown.CompareAndSwap(nil, &local)
	err := s.conn.Close()
	if s.transport != nil {
		if cerr := s.transport.Close(); err == nil {
			err = cerr
		}
	}
	if evErr != nil {
		return evErr
	}
	return err
}

// SetDeadline bounds both directions, like net.Conn.
func (s *Session) SetDeadline(t time.Time) error { return s.transport.SetDeadline(t) }

// SetReadDeadline bounds blocked reads on the underlying transport,
// so a mid-session stall (a hop that silently stops delivering)
// surfaces as a timeout error instead of hanging forever.
func (s *Session) SetReadDeadline(t time.Time) error { return s.transport.SetReadDeadline(t) }

// SetWriteDeadline forwards to the transport.
func (s *Session) SetWriteDeadline(t time.Time) error { return s.transport.SetWriteDeadline(t) }

// Stats snapshots the session's counters.
func (s *Session) Stats() SessionStats {
	in, out := s.conn.RecordCounts()
	st := SessionStats{
		RecordsRelayed: in + out,
		FaultsObserved: s.faults.Load(),
		ResumedHops:    int64(s.resumedHops),
	}
	if s.resumedPrimary {
		st.ResumedPrimary = 1
	}
	if s.acct == AccountProxySig {
		st.ProxySigSessions = 1
	} else {
		st.AttestSessions = 1
	}
	if r := s.teardown.Load(); r != nil {
		st.TeardownReason = *r
	}
	return st
}

// ConnectionState returns the primary session's state.
func (s *Session) ConnectionState() tls12.ConnectionState { return s.conn.ConnectionState() }

// Middleboxes lists this endpoint's session middleboxes in path order
// (from this endpoint outward toward the bridge).
func (s *Session) Middleboxes() []MiddleboxSummary {
	out := make([]MiddleboxSummary, len(s.mboxes))
	copy(out, s.mboxes)
	return out
}

// ExportPrimaryKeys exports the end-to-end (bridge) session keys. An
// endpoint always knows these — it ran the primary handshake — which
// is precisely why the paper warns that clients can read or inject
// traffic on any hop of their own side (§4.2, "Middlebox State
// Poisoning"). The adversary harness uses this to demonstrate the
// cache-poisoning limitation; exporters for key-logging tooling are
// the benign use.
func (s *Session) ExportPrimaryKeys() (*tls12.SessionKeys, error) {
	return s.conn.ExportSessionKeys()
}
