package core_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
)

// This file is the property-test surface of the fault-injection
// substrate: every FaultKind at every injection point must surface a
// typed error at an endpoint within its deadline, leak no relay
// goroutines, and — for a fixed seed — reproduce the same error class
// and session counters run after run.

// countingConn counts client→server transport bytes, used to locate
// the end of the handshake byte stream for mid-data fault offsets.
type countingConn struct {
	net.Conn
	wrote atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

// buildFaultChain is buildChain with spec injected into the client's
// first hop; the client is fault end A, so DirAToB faults
// client→middlebox traffic.
func buildFaultChain(t *testing.T, spec netsim.FaultSpec, mboxes ...*core.Middlebox) (clientEnd, serverEnd net.Conn) {
	t.Helper()
	ch, err := chain.Wire(chain.ClientHop(func() (net.Conn, net.Conn) { return netsim.FaultPipe(spec) }), mboxes...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ch.Close)
	return ch.Client, ch.Server
}

// measureClientHandshakeBytes runs one clean session and returns how
// many bytes the client transport had written when Dial returned. The
// handshake byte count is deterministic for a fixed env (fixed-size
// X25519 shares and Ed25519 signatures; certificates reused across
// runs), which is what lets a mid-data fault offset land on the same
// wire byte every run.
func measureClientHandshakeBytes(t *testing.T, e *env, mkMb func() *core.Middlebox) int64 {
	t.Helper()
	clientEnd, serverEnd := buildChain(t, mkMb())
	cc := &countingConn{Conn: clientEnd}
	sess, srv := dialAccept(t, cc, serverEnd, e.clientConfig(), e.serverConfig())
	h := cc.wrote.Load()
	sess.Close()
	srv.Close()
	if h == 0 {
		t.Fatal("measured zero handshake bytes")
	}
	return h
}

// waitGoroutines pins the no-leaked-relay-goroutines property via the
// shared accounting helper in internal/testutil/goleak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	goleak.Wait(t, base)
}

// TestFaultMatrix: every fault kind at every injection point
// (pre-handshake, mid-handshake, mid-data) surfaces a typed error of
// an allowed class at the client within the deadline budget, the
// server-side Accept returns, and no goroutine outlives the session.
func TestFaultMatrix(t *testing.T) {
	e := newEnv(t)
	h := measureClientHandshakeBytes(t, e, func() *core.Middlebox {
		return e.middlebox(t, "mb.example", core.ClientSide)
	})

	kinds := []netsim.FaultKind{
		netsim.FaultDrop, netsim.FaultStall, netsim.FaultReset,
		netsim.FaultCorrupt, netsim.FaultReorder, netsim.FaultPartition,
	}
	points := []struct {
		name    string
		offset  int64
		midData bool
	}{
		{"pre-handshake", 0, false},
		{"mid-handshake", 60, false}, // inside the ClientHello record: a mid-record fault
		{"mid-data", h + 64, true},   // inside the first application-data record
	}
	// Starvation faults surface as deadline expiries; a watchdog close
	// turns a wedged write into a closed-pipe (reset-class) error; and
	// when the peer's symmetric phase deadline fires first, its teardown
	// reaches this end as EOF (clean_close) — which endpoint's timer
	// wins is a scheduling race, so all three classes are legal. The
	// byte-mangling faults surface wherever the damage lands: a MAC or
	// framing failure at whichever layer meets it first, the resulting
	// propagated alert, a peer that gave up, or starvation when the
	// mangled bytes desynchronize framing.
	starve := []core.ErrorClass{core.ClassTimeout, core.ClassReset, core.ClassCleanClose}
	mangle := []core.ErrorClass{
		core.ClassIntegrity, core.ClassProtocol, core.ClassRemoteAlert,
		core.ClassTimeout, core.ClassReset, core.ClassCleanClose,
	}
	allowed := map[netsim.FaultKind][]core.ErrorClass{
		netsim.FaultDrop:      starve,
		netsim.FaultStall:     starve,
		netsim.FaultPartition: starve,
		netsim.FaultReset:     {core.ClassReset, core.ClassTimeout},
		netsim.FaultCorrupt:   mangle,
		netsim.FaultReorder:   mangle,
	}

	for _, kind := range kinds {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%s", kind, pt.name), func(t *testing.T) {
				base := goleak.Base()
				spec := netsim.FaultSpec{Kind: kind, Offset: pt.offset, Seed: 7, Dir: netsim.DirAToB}
				mb := e.middlebox(t, "mb.example", core.ClientSide)
				clientEnd, serverEnd := buildFaultChain(t, spec, mb)

				ccfg := e.clientConfig()
				ccfg.HandshakeTimeout = 1500 * time.Millisecond
				scfg := e.serverConfig()
				scfg.HandshakeTimeout = 1500 * time.Millisecond

				srvCh := make(chan *core.Session, 1)
				go func() {
					s, _ := core.Accept(serverEnd, scfg)
					srvCh <- s
				}()

				start := time.Now()
				sess, err := core.Dial(clientEnd, ccfg)
				if pt.midData {
					if err != nil {
						t.Fatalf("handshake should clear a fault at offset %d: %v", pt.offset, err)
					}
					// Watchdog: a wedged write (FaultStall) can only be
					// unblocked by closing the transport.
					watchdog := time.AfterFunc(4*time.Second, func() { sess.Close() })
					defer watchdog.Stop()
					sess.SetReadDeadline(time.Now().Add(1500 * time.Millisecond)) //nolint:errcheck
					payload := make([]byte, 800)
					_, err = sess.Write(payload)
					if err == nil {
						var buf [64]byte
						_, err = sess.Read(buf[:])
					}
				}
				elapsed := time.Since(start)
				if err == nil {
					t.Fatal("injected fault produced no error")
				}
				if elapsed > 8*time.Second {
					t.Fatalf("error took %v to surface", elapsed)
				}
				cls := core.ClassifyError(err)
				ok := false
				for _, c := range allowed[kind] {
					ok = ok || c == cls
				}
				if !ok {
					t.Fatalf("error class %s (err: %v) not allowed for %s", cls, err, kind)
				}

				if sess != nil {
					if r := sess.Stats().TeardownReason; r == "" {
						t.Fatal("failed session has no teardown reason")
					}
					sess.Close()
				}
				clientEnd.Close()
				serverEnd.Close()
				select {
				case srv := <-srvCh:
					if srv != nil {
						srv.Close()
					}
				case <-time.After(8 * time.Second):
					t.Fatal("server Accept never returned")
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestFaultDeterministicReplay: acceptance criterion of the substrate —
// the same seed over the same traffic yields the same error class, the
// same teardown reason, and the same counters, ten runs out of ten.
func TestFaultDeterministicReplay(t *testing.T) {
	e := newEnv(t)
	mkMb := func() *core.Middlebox { return e.middlebox(t, "mb.example", core.ClientSide) }
	h := measureClientHandshakeBytes(t, e, mkMb)
	spec := netsim.FaultSpec{
		Kind:   netsim.FaultCorrupt,
		Offset: h + 200, // inside the 800-byte application record's ciphertext
		Seed:   99,
		Stride: 64,
		Dir:    netsim.DirAToB,
	}

	type outcome struct {
		class    core.ErrorClass
		teardown string
		records  int64
		faults   int64
		mbFaults int64
	}
	var outcomes []outcome
	for run := 0; run < 10; run++ {
		mb := mkMb()
		clientEnd, serverEnd := buildFaultChain(t, spec, mb)
		srvCh := make(chan *core.Session, 1)
		go func() {
			s, _ := core.Accept(serverEnd, e.serverConfig())
			srvCh <- s
		}()
		sess, err := core.Dial(clientEnd, e.clientConfig())
		if err != nil {
			t.Fatalf("run %d: handshake must clear a mid-data fault: %v", run, err)
		}
		// One Write → one record, so the corruption lands at a fixed
		// position inside a fixed record layout.
		if _, err := sess.Write(make([]byte, 800)); err != nil {
			t.Fatalf("run %d: write: %v", run, err)
		}
		sess.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		var buf [64]byte
		_, rerr := sess.Read(buf[:])
		if rerr == nil {
			t.Fatalf("run %d: corrupted record produced no read error", run)
		}
		stats := sess.Stats()
		outcomes = append(outcomes, outcome{
			class:    core.ClassifyError(rerr),
			teardown: stats.TeardownReason,
			records:  stats.RecordsRelayed,
			faults:   stats.FaultsObserved,
			mbFaults: mb.Stats().FaultsObserved,
		})
		sess.Close()
		clientEnd.Close()
		serverEnd.Close()
		if srv := <-srvCh; srv != nil {
			srv.Close()
		}
	}

	first := outcomes[0]
	if first.class != core.ClassRemoteAlert {
		t.Fatalf("corrupted hop record surfaced as %s (%+v), want the middlebox's propagated alert", first.class, first)
	}
	if !strings.HasPrefix(first.teardown, "remote_alert:") {
		t.Fatalf("teardown reason %q lacks the alert description", first.teardown)
	}
	if first.faults != 1 || first.mbFaults != 1 {
		t.Fatalf("fault counters = %+v, want exactly one at client and middlebox", first)
	}
	for i, o := range outcomes[1:] {
		if o != first {
			t.Fatalf("run %d diverged: %+v vs run 0 %+v — seeded faults must replay exactly", i+1, o, first)
		}
	}
}

// TestMidSessionHopDeath: a middlebox whose upstream hop dies
// mid-session must propagate a fatal alert down the chain — the
// client, blocked in Read, fails fast on a protocol-level signal, not
// a deadline — then tear down without leaking relay goroutines.
func TestMidSessionHopDeath(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	mb := e.middlebox(t, "mb.example", core.ClientSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	exchange(t, client, server, "steady state", "ack")

	readErr := make(chan error, 1)
	go func() {
		var buf [32]byte
		_, err := client.Read(buf[:])
		readErr <- err
	}()
	// Kill the middlebox→server hop with a reset. The server transport
	// conn is that hop's other end.
	server.SetReadDeadline(time.Now().Add(time.Millisecond)) //nolint:errcheck
	serverTransportOf(t, mb, server).Reset()

	select {
	case err := <-readErr:
		cls := core.ClassifyError(err)
		if cls != core.ClassRemoteAlert {
			t.Fatalf("client read after hop death = %v (class %s), want the propagated alert", err, cls)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client read still blocked 5s after hop death")
	}
	st := client.Stats()
	if !strings.HasPrefix(st.TeardownReason, "remote_alert:") || st.FaultsObserved != 1 {
		t.Fatalf("client stats after hop death: %+v", st)
	}
	if mb.Stats().FaultsObserved != 1 {
		t.Fatalf("middlebox stats: %+v", mb.Stats())
	}
	client.Close()
	server.Close()
	waitGoroutines(t, base)
}

// serverTransportOf digs the *netsim.Conn out of the server session's
// transport so the test can reset the mb→server hop from outside.
func serverTransportOf(t *testing.T, _ *core.Middlebox, server *core.Session) *netsim.Conn {
	t.Helper()
	nc, ok := server.Transport().(*netsim.Conn)
	if !ok {
		t.Fatalf("server transport is %T, want *netsim.Conn", server.Transport())
	}
	return nc
}

// TestHandshakePhaseDeadline: a peer that goes silent pre-handshake
// produces a typed HandshakeTimeoutError naming the stuck phase at
// exactly the default phase deadline on the transport's clock, and the
// endpoint's goroutines unwind — dialing or accepting alike.
func TestHandshakePhaseDeadline(t *testing.T) {
	e := newEnv(t)
	establish := map[string]func(net.Conn) error{
		"dial": func(c net.Conn) error {
			_, err := core.Dial(c, e.clientConfig())
			return err
		},
		"accept": func(c net.Conn) error {
			_, err := core.Accept(c, e.serverConfig())
			return err
		},
	}
	for name, run := range establish {
		t.Run(name, func(t *testing.T) {
			base := goleak.Base()
			clk := clock.NewManual(time.Now())
			ownEnd, silentEnd := netsim.NewLink(netsim.LinkConfig{Clock: clk})
			defer silentEnd.Close()

			done := make(chan error, 1)
			go func() { done <- run(ownEnd) }()
			clk.AwaitTimers(1) // the primary handshake's deadline
			clk.Advance(core.DefaultHandshakeTimeout - time.Nanosecond)
			select {
			case err := <-done:
				t.Fatalf("establishment returned (%v) 1ns before its deadline", err)
			default:
			}
			clk.Advance(time.Nanosecond)
			err := <-done
			var hte *core.HandshakeTimeoutError
			if !errors.As(err, &hte) {
				t.Fatalf("err = %v (%T), want *HandshakeTimeoutError", err, err)
			}
			if hte.Phase != core.PhasePrimaryHandshake {
				t.Fatalf("timed-out phase = %s, want %s", hte.Phase, core.PhasePrimaryHandshake)
			}
			if !hte.Timeout() {
				t.Fatal("HandshakeTimeoutError must satisfy net.Error.Timeout")
			}
			ownEnd.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestClassifyError pins the classification table the teardown paths
// depend on.
func TestClassifyError(t *testing.T) {
	_, closed := netsim.Pipe()
	closed.Close()
	_, err := closed.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read on closed pipe succeeded")
	}

	cases := []struct {
		err  error
		want core.ErrorClass
	}{
		{nil, core.ClassOK},
		{fmt.Errorf("wrap: %w", &core.HandshakeTimeoutError{Phase: core.PhaseKeyDistribution, Limit: time.Second}), core.ClassTimeout},
	}
	for _, c := range cases {
		if got := core.ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	if got := core.ClassifyError(err); got != core.ClassCleanClose && got != core.ClassReset {
		t.Errorf("closed-pipe read classified as %s", got)
	}
}
