package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/tls12"
)

// This file is the failure-path vocabulary of the session chain: a
// classification of every error the chain can surface and per-phase
// handshake deadlines. Together with the netsim fault substrate it
// makes failure behavior deterministic — each fault class maps to a
// defined error class at each layer (DESIGN.md §7) rather than to
// whichever goroutine happened to lose a race.

// ErrorClass buckets session-chain errors by operational meaning:
// what a caller (or a relay deciding which alert to propagate) should
// do about them, independent of which layer produced them.
type ErrorClass int

// Error classes, roughly ordered from benign to severe.
const (
	// ClassOK is a nil error.
	ClassOK ErrorClass = iota
	// ClassCleanClose is an orderly shutdown: close_notify, EOF.
	ClassCleanClose
	// ClassTimeout is a deadline expiry — a read deadline, or a phase
	// deadline of an endpoint's establishment or a middlebox's join.
	ClassTimeout
	// ClassReset is an abrupt transport death: connection reset, write
	// on a closed pipe, unexpected EOF mid-record.
	ClassReset
	// ClassOverload is admission-control rejection by a session host:
	// the host is at its max-concurrent-sessions cap, or draining
	// toward shutdown. Surfaced locally as OverloadError/DrainingError
	// and remotely as the overloaded/draining alerts.
	ClassOverload
	// ClassIntegrity is cryptographic or framing damage: MAC failures,
	// corrupt headers, oversized records.
	ClassIntegrity
	// ClassRemoteAlert is a fatal alert received from the peer (or
	// propagated by a relay on the path).
	ClassRemoteAlert
	// ClassProtocol is a local protocol violation: unexpected messages,
	// bad parameters, failed verification.
	ClassProtocol
	// ClassInternal is everything else.
	ClassInternal
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassCleanClose:
		return "clean_close"
	case ClassTimeout:
		return "timeout"
	case ClassReset:
		return "reset"
	case ClassOverload:
		return "overload"
	case ClassIntegrity:
		return "integrity"
	case ClassRemoteAlert:
		return "remote_alert"
	case ClassProtocol:
		return "protocol"
	case ClassInternal:
		return "internal"
	}
	return "class(?)"
}

// Transient reports whether retrying over a fresh transport could
// plausibly succeed. Integrity and protocol failures are
// deterministic; retrying only re-runs them. Overload is transient by
// nature: the host's admission pressure changes as sessions finish.
func (c ErrorClass) Transient() bool {
	return c == ClassTimeout || c == ClassReset || c == ClassOverload
}

// isFault reports whether the class represents a path fault rather
// than a clean shutdown.
func (c ErrorClass) isFault() bool { return c != ClassOK && c != ClassCleanClose }

// ClassifyError maps an error from Dial, Accept, Session I/O, or a
// relay goroutine to its ErrorClass. It sees through fmt.Errorf
// wrapping at every layer.
func ClassifyError(err error) ErrorClass {
	if err == nil {
		return ClassOK
	}
	var hte *HandshakeTimeoutError
	if errors.As(err, &hte) {
		return ClassTimeout
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		return ClassOverload
	}
	var de *DrainingError
	if errors.As(err, &de) {
		return ClassOverload
	}
	// A proxysig accountability failure (forged evidence, substituted
	// delegation) is cryptographic damage to the audit chain.
	var ace *AccountabilityError
	if errors.As(err, &ace) {
		return ClassIntegrity
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	if errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return ClassReset
	}
	if errors.Is(err, io.EOF) {
		return ClassCleanClose
	}
	var ae *tls12.AlertError
	if errors.As(err, &ae) {
		// Admission-control alerts classify as overload whichever side
		// reports them: a dialer that receives overloaded/draining from
		// a host should see the same class the host's Submit returned.
		switch ae.Description {
		case tls12.AlertOverloaded, tls12.AlertDraining:
			return ClassOverload
		}
		if ae.Remote {
			return ClassRemoteAlert
		}
		switch ae.Description {
		case tls12.AlertBadRecordMAC, tls12.AlertDecryptError,
			tls12.AlertRecordOverflow, tls12.AlertDecodeError,
			tls12.AlertProtocolVersion:
			return ClassIntegrity
		}
		return ClassProtocol
	}
	return ClassInternal
}

// describeTeardown renders an error as a stable teardown-reason
// string: the class, refined with the alert description when one is
// attached (e.g. "remote_alert:bad_record_mac").
func describeTeardown(err error) string {
	cls := ClassifyError(err)
	var ae *tls12.AlertError
	if errors.As(err, &ae) {
		return fmt.Sprintf("%s:%s", cls, ae.Description)
	}
	return cls.String()
}

// alertForClass maps a fault class to the alert a relay propagates
// down the chain when that fault kills a session.
func alertForClass(c ErrorClass) tls12.AlertDescription {
	switch c {
	case ClassIntegrity:
		return tls12.AlertBadRecordMAC
	case ClassProtocol:
		return tls12.AlertUnexpectedMessage
	default:
		return tls12.AlertInternalError
	}
}

// OverloadError is the typed rejection a session host returns when a
// new connection would exceed its max-concurrent-sessions cap. It
// classifies as ClassOverload (transient: sessions finishing relieve
// the pressure) and implements net.Error so generic handling treats it
// as temporary, not a timeout.
type OverloadError struct {
	// Host names the rejecting host.
	Host string
	// Active and Max describe the admission state at rejection.
	Active, Max int
}

// Error implements the error interface.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: session host %q overloaded (%d/%d sessions)", e.Host, e.Active, e.Max)
}

// Timeout implements net.Error.
func (e *OverloadError) Timeout() bool { return false }

// Temporary implements net.Error.
func (e *OverloadError) Temporary() bool { return true }

// DrainingError is the typed rejection a session host returns for
// connections arriving after Shutdown began: in-flight sessions are
// finishing, new admissions are refused. Like OverloadError it
// classifies as ClassOverload; retrying reaches a restarted instance
// or another host.
type DrainingError struct {
	// Host names the draining host.
	Host string
}

// Error implements the error interface.
func (e *DrainingError) Error() string {
	return fmt.Sprintf("core: session host %q is draining", e.Host)
}

// Timeout implements net.Error.
func (e *DrainingError) Timeout() bool { return false }

// Temporary implements net.Error.
func (e *DrainingError) Temporary() bool { return true }

// HandshakePhase names the deadline-bounded phases of session
// establishment.
type HandshakePhase string

// An endpoint's establishment phases, in order.
const (
	PhasePrimaryHandshake    HandshakePhase = "primary-handshake"
	PhaseSecondaryHandshakes HandshakePhase = "secondary-handshakes"
	PhaseKeyDistribution     HandshakePhase = "key-distribution"
)

// A middlebox's join phases, in order (paper §3.4): reading the
// ClientHello it decides on, its secondary handshake, the wait for its
// hop keys, and — under proxysig — the wait for its delegation warrant.
const (
	PhaseHelloSniff         HandshakePhase = "hello-sniff"
	PhaseSecondaryHandshake HandshakePhase = "secondary-handshake"
	PhaseKeyMaterial        HandshakePhase = "key-material"
	PhaseDelegation         HandshakePhase = "delegation"
)

// DefaultHandshakeTimeout bounds each establishment phase when a
// config leaves HandshakeTimeout zero.
const DefaultHandshakeTimeout = 30 * time.Second

// handshakeLimit resolves a config's HandshakeTimeout field: zero
// means the default, negative disables phase deadlines.
func handshakeLimit(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return DefaultHandshakeTimeout
	case d < 0:
		return 0
	}
	return d
}

// HandshakeTimeoutError reports which establishment phase overran its
// deadline. It implements net.Error, so generic timeout handling
// (errors.As + Timeout()) classifies it without knowing about mbTLS.
type HandshakeTimeoutError struct {
	Phase HandshakePhase
	Limit time.Duration
}

// Error implements the error interface.
func (e *HandshakeTimeoutError) Error() string {
	return fmt.Sprintf("core: %s exceeded %v deadline", e.Phase, e.Limit)
}

// Timeout implements net.Error.
func (e *HandshakeTimeoutError) Timeout() bool { return true }

// Temporary implements net.Error.
func (e *HandshakeTimeoutError) Temporary() bool { return true }

// hsWatch arms a per-phase deadline over session establishment: an
// endpoint's (establish) or a middlebox's join. Both spend it parked in
// reads on pipes, where no read deadline can reach (the pipes are not
// net.Conns); when a phase overruns, the watcher runs its kill action —
// the endpoint fails its mux and closes the transport, the middlebox
// fails its session — which unblocks every parked read, and err() lets
// the caller surface the typed timeout instead of the secondary
// closed-pipe error the unblocking produced. A watcher with no limit
// (deadlines disabled) is inert.
type hsWatch struct {
	limit time.Duration
	clk   clock.Clock
	kill  func(error)

	mu    sync.Mutex
	timer clock.Timer
	phase HandshakePhase
	fired *HandshakeTimeoutError
	done  bool
}

// watchHandshake starts a watcher on clk; limit <= 0 disables it.
func watchHandshake(limit time.Duration, clk clock.Clock, kill func(error)) *hsWatch {
	return &hsWatch{limit: limit, clk: clk, kill: kill}
}

// enter (re)arms the deadline for the next phase.
func (w *hsWatch) enter(phase HandshakePhase) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.limit <= 0 || w.done || w.fired != nil {
		return
	}
	w.phase = phase
	if w.timer != nil {
		w.timer.Stop()
	}
	w.timer = w.clk.AfterFunc(w.limit, w.fire)
}

func (w *hsWatch) fire() {
	w.mu.Lock()
	if w.done || w.fired != nil {
		w.mu.Unlock()
		return
	}
	w.fired = &HandshakeTimeoutError{Phase: w.phase, Limit: w.limit}
	w.mu.Unlock()
	w.kill(w.fired)
}

// stop disarms the watcher (establishment finished, either way).
func (w *hsWatch) stop() {
	w.mu.Lock()
	w.done = true
	if w.timer != nil {
		w.timer.Stop()
	}
	w.mu.Unlock()
}

// err returns the timeout that fired, or nil.
func (w *hsWatch) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fired != nil {
		return w.fired
	}
	return nil
}
