package sessionhost_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/sessionhost"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// hostEnv is the shared fixture: chain's hosted topology on a
// simulated network — its PKI, its fabric, and for the tests that need a
// whole chain its Serve and Middlebox — with the 10 s handshake bound
// these tests run under.
type hostEnv struct{ *chain.Hosted }

func newHostEnv(t *testing.T) *hostEnv {
	t.Helper()
	h, err := chain.NewHosted(chain.TransportNetsim, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &hostEnv{h}
}

func (e *hostEnv) clientConfig() *core.ClientConfig {
	ccfg := e.PKI.ClientConfig()
	ccfg.HandshakeTimeout = 10 * time.Second
	return ccfg
}

// echoHandler serves echo sessions until the peer closes.
func (e *hostEnv) echoHandler() sessionhost.Handler {
	scfg := e.PKI.ServerConfig()
	scfg.HandshakeTimeout = 10 * time.Second
	return sessionhost.NewServerHandler(scfg, chain.Echo)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitGoroutines pins the no-leak property via the shared accounting
// helper in internal/testutil/goleak (the same helper backs
// internal/core's fault tests and the transport conformance suite).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	goleak.Wait(t, base)
}

// TestShutdownDrainsInFlightAndRefusesNew is the graceful half of the
// drain contract: a session mid-transfer when Shutdown begins runs to
// completion (Shutdown returns nil, nothing force-closed), while a new
// dial during the drain is refused with the typed draining rejection —
// ClassOverload both for the local Submit caller and for a remote
// mbTLS client, which sees the plaintext draining alert.
func TestShutdownDrainsInFlightAndRefusesNew(t *testing.T) {
	base := goleak.Base()
	e := newHostEnv(t)
	ln, err := e.Fabric.Sim.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	host, err := sessionhost.New(sessionhost.Config{Name: "drain-test", Handler: e.echoHandler()})
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(ln) //nolint:errcheck

	// Establish a session and leave it mid-transfer.
	conn, err := e.Fabric.Sim.Dial("client", "server")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.Dial(conn, e.clientConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Write([]byte("first half")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(sess, buf); err != nil {
		t.Fatal(err)
	}

	// Begin the drain with a generous deadline; it must not need it.
	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownErr <- host.Shutdown(ctx) }()
	<-host.Draining()

	// A new remote dial during drain is refused with the draining
	// alert, which the client's classifier maps to ClassOverload.
	conn2, err := e.Fabric.Sim.Dial("latecomer", "server")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Dial(conn2, e.clientConfig()); err == nil {
		t.Error("dial during drain produced a session, want refusal")
	} else {
		if cls := core.ClassifyError(err); cls != core.ClassOverload {
			t.Errorf("drain refusal classified %s (%v), want %s", cls, err, core.ClassOverload)
		}
		if !isRemoteAlert(err, tls12.AlertDraining) {
			t.Errorf("drain refusal = %v, want remote draining alert", err)
		}
	}

	// A local Submit during drain returns the typed DrainingError.
	c1, c2 := net.Pipe()
	defer c2.Close()
	err = host.Submit(c1)
	var de *core.DrainingError
	if !errors.As(err, &de) {
		t.Fatalf("Submit during drain = %v, want DrainingError", err)
	}
	if de.Host != "drain-test" {
		t.Errorf("DrainingError.Host = %q", de.Host)
	}
	if cls := core.ClassifyError(err); cls != core.ClassOverload {
		t.Errorf("DrainingError classified %s, want %s", cls, core.ClassOverload)
	}
	c1.Close()

	// The in-flight session keeps working through the drain, then
	// finishes cleanly — and only then does Shutdown return.
	if _, err := sess.Write([]byte("second half")); err != nil {
		t.Fatalf("mid-transfer write during drain: %v", err)
	}
	buf = make([]byte, 11)
	if _, err := io.ReadFull(sess, buf); err != nil {
		t.Fatalf("mid-transfer read during drain: %v", err)
	}
	if string(buf) != "second half" {
		t.Fatalf("echo during drain = %q", buf)
	}
	sess.Close()

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	m := host.Snapshot()
	if m.Completed != 1 || m.ForceClosed != 0 {
		t.Errorf("completed=%d forceClosed=%d, want 1/0", m.Completed, m.ForceClosed)
	}
	if m.RefusedDraining < 2 {
		t.Errorf("refusedDraining = %d, want >= 2", m.RefusedDraining)
	}
	if m.DrainTime <= 0 {
		t.Error("drain time not recorded")
	}
	waitGoroutines(t, base)
}

// TestOverloadRefusal: at MaxSessions the host refuses admission with
// the typed OverloadError locally and the overloaded alert remotely,
// both feeding ClassOverload, and counts each refusal.
// TestServeListenersPartialFailureClosesSiblings: when one accept loop
// fails while the host is still up, ServeListeners must tear down the
// sibling listeners and return, instead of serving on the rest forever
// with the failure invisible. A Serve loop that returned has also let
// go of its listener: Shutdown does not close it a second time.
func TestServeListenersPartialFailureClosesSiblings(t *testing.T) {
	e := newHostEnv(t)
	host, err := sessionhost.New(sessionhost.Config{Name: "partial", Handler: e.echoHandler()})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	var lns []net.Listener
	var closes [3]atomic.Int32
	for i := range closes {
		ln, err := e.Fabric.Sim.Listen(fmt.Sprintf("server-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, &countedListener{Listener: ln, closes: &closes[i]})
	}
	done := make(chan error, 1)
	go func() { done <- host.ServeListeners(lns) }()
	// Let the loops start, then fail one listener out from under its
	// Serve loop (the host is not closed, so this is a real failure).
	waitFor(t, "listeners accepting", func() bool {
		c, err := e.Fabric.Sim.Dial("probe", "server-2")
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
	lns[0].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeListeners returned nil after a listener failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListeners did not return after one listener failed")
	}
	// The siblings were closed by the cascade: new dials are refused.
	if _, err := e.Fabric.Sim.Dial("client", "server-1"); err == nil {
		t.Fatal("sibling listener still accepting after partial failure")
	}
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range closes {
		if n := closes[i].Load(); n != 1 {
			t.Errorf("listener %d closed %d times, want once (a returned Serve loop forgets its listener)", i, n)
		}
	}
}

// countedListener counts its Close calls.
type countedListener struct {
	net.Listener
	closes *atomic.Int32
}

func (l *countedListener) Close() error {
	l.closes.Add(1)
	return l.Listener.Close()
}

// fullHost returns a one-slot host ("tiny") whose slot is occupied by a
// session that ends when release is closed.
func fullHost(t *testing.T) (host *sessionhost.Host, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	host, err := sessionhost.New(sessionhost.Config{
		Name:        "tiny",
		MaxSessions: 1,
		Handler: sessionhost.HandlerFunc(func(ctl *sessionhost.Control, conn net.Conn) error {
			<-release
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c1, c1peer := net.Pipe()
	t.Cleanup(func() { c1peer.Close() })
	if err := host.Submit(c1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "slot occupied", func() bool { return host.Snapshot().ActiveSessions == 1 })
	return host, release
}

func TestOverloadRefusal(t *testing.T) {
	e := newHostEnv(t)
	host, release := fullHost(t)

	// Local Submit beyond the cap.
	c2, c2peer := net.Pipe()
	defer c2peer.Close()
	err := host.Submit(c2)
	var oe *core.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Submit over cap = %v, want OverloadError", err)
	}
	if oe.Host != "tiny" || oe.Max != 1 {
		t.Errorf("OverloadError = %+v", oe)
	}
	if cls := core.ClassifyError(err); cls != core.ClassOverload {
		t.Errorf("OverloadError classified %s, want %s", cls, core.ClassOverload)
	}
	c2.Close()

	// Remote dial beyond the cap sees the overloaded alert.
	ln, err := e.Fabric.Sim.Listen("tiny")
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(ln) //nolint:errcheck
	conn, err := e.Fabric.Sim.Dial("client", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Dial(conn, e.clientConfig()); err == nil {
		t.Error("dial over cap produced a session, want refusal")
	} else {
		if cls := core.ClassifyError(err); cls != core.ClassOverload {
			t.Errorf("overload refusal classified %s (%v), want %s", cls, err, core.ClassOverload)
		}
		if !isRemoteAlert(err, tls12.AlertOverloaded) {
			t.Errorf("overload refusal = %v, want remote overloaded alert", err)
		}
	}

	m := host.Snapshot()
	if m.Overloaded < 2 {
		t.Errorf("overloaded = %d, want >= 2", m.Overloaded)
	}
	if m.Accepted != 1 || m.HandshakesInFlight != 1 {
		t.Errorf("accepted=%d handshaking=%d, want 1/1", m.Accepted, m.HandshakesInFlight)
	}

	close(release)
	if err := host.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestRefusalOutlivesTheHello pins how long a refusal stays readable
// (DESIGN.md §9). The host used to close right behind the alert, so a
// client whose ClientHello left after that close failed on its own
// write and never read the refusal; scheduling decided which. Here the
// order is forced: the host has refused, and moved on, before the
// client writes. A refused client that never writes is still closed,
// within the linger bound, and nothing is left running.
func TestRefusalOutlivesTheHello(t *testing.T) {
	base := goleak.Base()
	e := newHostEnv(t)
	host, release := fullHost(t)
	ln, err := e.Fabric.Sim.Listen("tiny")
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(ln) //nolint:errcheck

	late, err := e.Fabric.Sim.Dial("late", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "refusal", func() bool { return host.Snapshot().Overloaded == 1 })
	time.Sleep(50 * time.Millisecond) // the alert is written and the accept loop is back in Accept
	if _, err := core.Dial(late, e.clientConfig()); !isRemoteAlert(err, tls12.AlertOverloaded) {
		t.Errorf("late hello: Dial = %v, want remote overloaded alert", err)
	}

	silent, err := e.Fabric.Sim.Dial("silent", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	alert := make([]byte, tls12.RecordHeaderLen+2)
	if _, err := io.ReadFull(silent, alert); err != nil || alert[0] != byte(tls12.TypeAlert) || alert[6] != byte(tls12.AlertOverloaded) {
		t.Fatalf("silent client read % x (%v), want an overloaded alert", alert, err)
	}
	if _, err := silent.Read(alert); err != io.EOF {
		t.Errorf("silent client after the alert: %v, want EOF once the linger bound passes", err)
	}

	close(release)
	if err := host.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	waitGoroutines(t, base)
}

// TestForceClosePastDeadlineLeaksNoGoroutines is the forced half of
// the drain contract: a full client → middlebox → server chain whose
// session never ends on its own is force-closed when the Shutdown
// deadline expires — the middlebox seals a close_notify toward both
// neighbors, the transports drop, every relay and handler goroutine
// unwinds, and nothing leaks. One wedged session does not hold the
// others back: the sessions that end during the drain have all returned
// before the deadline, and the deadline forces exactly the wedged one.
// The deadline is a cancel the test fires once they have, so "before"
// is an ordering, not a timing.
func TestForceClosePastDeadlineLeaksNoGoroutines(t *testing.T) {
	base := goleak.Base()
	e := newHostEnv(t)

	srvHost, srvAddr, err := e.Serve("server", sessionhost.Config{Name: "server", Handler: e.echoHandler()})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := e.Middlebox("mb", core.MiddleboxConfig{Mode: core.ClientSide, BufPool: tls12.NewRecordBufPool(4)},
		sessionhost.Config{Name: "mb"}, srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	mbHost := hop.Host

	// A client that establishes a session and then idles forever: the
	// session will never drain on its own.
	clientDone := make(chan error, 1)
	established := make(chan struct{})
	go func() {
		conn, err := hop.Dial()
		if err != nil {
			clientDone <- err
			return
		}
		sess, err := core.Dial(conn, e.clientConfig())
		if err != nil {
			clientDone <- err
			return
		}
		close(established)
		sess.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		buf := make([]byte, 16)
		_, err = sess.Read(buf) // blocks until the force-close reaches us
		sess.Close()
		clientDone <- fmt.Errorf("read after force-close: %w", err)
	}()
	<-established

	// Three more sessions, live when the drain begins and ended by their
	// clients once it has.
	const others = 3
	for i := 0; i < others; i++ {
		conn, err := hop.Dial()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.Dial(conn, e.clientConfig())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			<-mbHost.Draining()
			sess.Close()
		}()
	}
	waitFor(t, "sessions registered on both hosts", func() bool {
		return mbHost.Snapshot().ActiveSessions == 1+others && srvHost.Snapshot().ActiveSessions == 1+others
	})

	// Drain the middlebox host. The idle session cannot meet any
	// deadline; the others finish on their own, and only then does the
	// deadline fire: Shutdown must force-close the one survivor and
	// report the deadline.
	ctx, deadline := context.WithCancel(context.Background())
	defer deadline()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- mbHost.Shutdown(ctx) }()
	waitFor(t, "every other session's handler returned", func() bool {
		return mbHost.Snapshot().ActiveSessions == 1
	})
	if m := mbHost.Snapshot(); m.ForceClosed != 0 || m.Completed+m.Failed != others {
		t.Errorf("before the deadline: forceClosed=%d ended=%d, want 0/%d", m.ForceClosed, m.Completed+m.Failed, others)
	}
	deadline()
	if err := <-shutdownErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Shutdown past deadline = %v, want the context's error", err)
	}
	if got := mbHost.Snapshot().ForceClosed; got != 1 {
		t.Errorf("forceClosed = %d, want exactly the wedged session", got)
	}

	// The force-close unwound the chain: the client's blocked read
	// returns, and the server host (whose transport the middlebox
	// dropped) now drains cleanly within its deadline.
	select {
	case err := <-clientDone:
		if cls := core.ClassifyError(err); !transportFailure(cls) && cls != core.ClassCleanClose {
			t.Errorf("client saw class %s (%v) after force-close", cls, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client still blocked after force-close")
	}
	srvCtx, srvCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer srvCancel()
	if err := srvHost.Shutdown(srvCtx); err != nil {
		t.Errorf("server host Shutdown after middlebox force-close = %v", err)
	}

	waitGoroutines(t, base)
}

// TestControlLifecycle pins the registry semantics handlers observe:
// session IDs unique and strictly increasing in admission order, the
// handshaking → established transition, and the draining channel.
func TestControlLifecycle(t *testing.T) {
	type obs struct {
		id            uint64
		before, after sessionhost.State
	}
	const sessions = 4
	seen := make(chan obs, sessions)
	host, err := sessionhost.New(sessionhost.Config{
		Name: "ctl",
		Handler: sessionhost.HandlerFunc(func(ctl *sessionhost.Control, conn net.Conn) error {
			o := obs{id: ctl.ID(), before: ctl.State()}
			ctl.SessionEstablished()
			o.after = ctl.State()
			seen <- o
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < sessions; i++ {
		c, peer := net.Pipe()
		defer peer.Close()
		if err := host.Submit(c); err != nil {
			t.Fatal(err)
		}
		o := <-seen
		if o.before != sessionhost.StateHandshaking || o.after != sessionhost.StateEstablished {
			t.Errorf("session %d states = %s → %s, want handshaking → established", o.id, o.before, o.after)
		}
		if len(ids) > 0 && o.id <= ids[len(ids)-1] {
			t.Errorf("session ID %d admitted after %v: IDs must strictly increase", o.id, ids)
		}
		ids = append(ids, o.id)
	}
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	if m := host.Snapshot(); m.Completed != sessions || m.ActiveSessions != 0 {
		t.Errorf("completed=%d active=%d, want %d/0", m.Completed, m.ActiveSessions, sessions)
	}
	select {
	case <-host.Draining():
	default:
		t.Error("Draining channel not closed after Close")
	}
}

// isRemoteAlert reports whether err is an alert with description d
// received from the peer.
func isRemoteAlert(err error, d tls12.AlertDescription) bool {
	ae, ok := err.(*tls12.AlertError)
	return ok && ae.Remote && ae.Description == d
}

// transportFailure reports whether cls is a failure of the path, which
// a fresh transport might not repeat.
func transportFailure(cls core.ErrorClass) bool {
	return cls == core.ClassTimeout || cls == core.ClassReset || cls == core.ClassOverload
}
