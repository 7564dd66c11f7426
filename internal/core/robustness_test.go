package core_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// clockedConn is a transport that carries its own clock: the clock a
// party running over it reads.
type clockedConn struct {
	net.Conn
	clk clock.Clock
}

func (c clockedConn) Clock() clock.Clock { return c.clk }

// aheadClock is the wall clock two hours fast.
type aheadClock struct{ clock.Real }

func (aheadClock) Now() time.Time { return time.Now().Add(2 * time.Hour) }

// TestEarlyDataHeldUntilKeys reproduces the False-Start-like scenario
// of §3.5: application data can reach a server-side middlebox before
// the server's MBTLSKeyMaterial does; the middlebox must hold it and
// deliver once keyed, not drop or corrupt it.
func TestEarlyDataHeldUntilKeys(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn.example", core.ServerSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()

	// By the time Dial returns the client may race ahead of the
	// server's key distribution; hammer immediately.
	payload := []byte("data racing the key material")
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("early data corrupted: %q", buf)
	}
}

// keyMaterialWait wires client → client-side middlebox → server by hand,
// with the middlebox on a manual clock, and returns the clock and
// Handle's result; the endpoints run on the wall clock.
func keyMaterialWait(t *testing.T, mb *core.Middlebox) (clk *clock.Manual, cliEnd, srvEnd net.Conn, handled <-chan error) {
	t.Helper()
	cliEnd, mbDown := netsim.Pipe()
	mbUp, srvEnd := netsim.Pipe()
	clk = clock.NewManual(time.Now()) // certificates are checked against it
	done := make(chan error, 1)
	go func() { done <- mb.Handle(clockedConn{mbDown, clk}, mbUp) }()
	t.Cleanup(func() {
		for _, c := range []net.Conn{cliEnd, mbDown, mbUp, srvEnd} {
			c.Close()
		}
	})
	return clk, cliEnd, srvEnd, done
}

// expireAt advances clk to 1ns before the middlebox's 30 s join-phase
// deadline, checks Handle is still waiting, then to the deadline, and
// checks Handle failed with a timeout naming phase.
func expireAt(t *testing.T, clk *clock.Manual, handled <-chan error, phase core.HandshakePhase) {
	t.Helper()
	clk.Advance(core.DefaultHandshakeTimeout - time.Nanosecond)
	select {
	case err := <-handled:
		t.Fatalf("Handle returned (%v) 1ns before the %s deadline", err, phase)
	default:
	}
	clk.Advance(time.Nanosecond)
	err := <-handled
	var hte *core.HandshakeTimeoutError
	if !errors.As(err, &hte) || hte.Phase != phase || core.ClassifyError(err) != core.ClassTimeout {
		t.Fatalf("Handle = %v, want a timeout in phase %s", err, phase)
	}
}

// TestKeyMaterialWaitTimesOut: a joined middlebox whose key material is
// withheld (the client sits in Approve, before key distribution) fails
// at exactly 30 s on its clock, not a nanosecond sooner, in the
// key-material phase — with application data held waiting for the keys
// (§3.5) or without. A client that connects and sends nothing fails
// the same way in hello-sniff.
func TestKeyMaterialWaitTimesOut(t *testing.T) {
	e := newEnv(t)
	for _, tc := range []struct {
		name      string
		silent    bool // the client never sends its hello
		earlyData bool // the server writes ahead of the key material
	}{
		{name: "early data", earlyData: true},
		{name: "no early data"},
		{name: "silent client", silent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := goleak.Base()
			mb := e.middlebox(t, "mb.example", core.ClientSide)
			clk, cliEnd, srvEnd, handled := keyMaterialWait(t, mb)
			if tc.silent {
				clk.AwaitTimers(1) // hello-sniff
				expireAt(t, clk, handled, core.PhaseHelloSniff)
				goleak.Wait(t, base)
				return
			}

			release := make(chan struct{})
			ccfg := e.clientConfig()
			ccfg.Approve = func(core.MiddleboxSummary) bool { <-release; return false }
			dialed := make(chan error, 1)
			go func() {
				_, err := core.Dial(cliEnd, ccfg)
				dialed <- err
			}()
			srv, err := core.Accept(srvEnd, e.serverConfig())
			if err != nil {
				t.Fatal(err)
			}
			if tc.earlyData {
				if _, err := srv.Write([]byte("ahead of the key material")); err != nil {
					t.Fatal(err)
				}
			}
			clk.AwaitTimers(3) // hello-sniff, secondary-handshake, key-material
			expireAt(t, clk, handled, core.PhaseKeyMaterial)
			close(release)
			if err := <-dialed; err == nil {
				t.Fatal("Dial succeeded through a middlebox that gave up")
			}
			srv.Close()
			goleak.Wait(t, base)
		})
	}
}

// stalledKeys is a ticket-key source whose OpenKeys blocks until
// released: a middlebox resuming a hop ticket stalls before its
// secondary ServerHello. entered is closed once it does.
type stalledKeys struct{ entered, release chan struct{} }

func (k stalledKeys) SealKey() [32]byte { return [32]byte{} }
func (k stalledKeys) OpenKeys() [][32]byte {
	close(k.entered)
	<-k.release
	return [][32]byte{{}}
}

// TestServerHelloHoldTimesOut: a client-side middlebox holds the
// primary ServerHello until its own secondary ServerHello is on the
// wire. When its secondary handshake stalls first, the session fails
// at exactly 30 s on the middlebox's clock, in secondary-handshake.
func TestServerHelloHoldTimesOut(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	keys := stalledKeys{entered: make(chan struct{}), release: make(chan struct{})}
	mb := e.middlebox(t, "mb.example", core.ClientSide, func(cfg *core.MiddleboxConfig) { cfg.TicketKeys = keys })
	clk, cliEnd, srvEnd, handled := keyMaterialWait(t, mb)

	ccfg := e.clientConfig()
	// A hop ticket for the middlebox sends its secondary handshake to
	// the ticket keys before it writes its ServerHello.
	ccfg.ChainTicket = &core.ChainTicket{Hops: []core.ChainHop{{
		Name: "mb.example", Ticket: []byte("stale"), CipherSuite: tls12.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		MasterSecret: make([]byte, 48),
	}}}
	dialed, accepted := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := core.Dial(cliEnd, ccfg)
		dialed <- err
	}()
	go func() {
		_, err := core.Accept(srvEnd, e.serverConfig())
		accepted <- err
	}()
	<-keys.entered     // the ServerHello has passed: the hold is on
	clk.AwaitTimers(2) // hello-sniff, secondary-handshake
	expireAt(t, clk, handled, core.PhaseSecondaryHandshake)
	close(keys.release)
	if err := <-dialed; err == nil {
		t.Fatal("Dial succeeded through a middlebox that gave up")
	}
	<-accepted
	goleak.Wait(t, base)
}

// TestServerHelloHoldMeetsReset: the client link resets at the first
// byte the middlebox writes toward the client — its secondary
// ServerHello, written when the primary ServerHello passes it — so the
// reset lands inside the ServerHello hold while the other relay
// direction reads the same dying link. Teardown then runs from both
// relays (and the hold) at once; every pipe it fails was built with the
// session, so there is nothing to race on (run under -race). The
// session must fail and leave nothing running, and the middlebox count
// at most one fault (it may read the client's close before the reset).
func TestServerHelloHoldMeetsReset(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	mb := e.middlebox(t, "mb.example", core.ClientSide)
	spec := netsim.FaultSpec{Kind: netsim.FaultReset, Dir: netsim.DirBToA}
	ch, err := chain.Wire(onHop(0, func() (net.Conn, net.Conn) { return netsim.FaultPipe(spec) }), mb)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chain.Establish(ch.Client, ch.Server, e.clientConfig(), e.serverConfig()); !errors.Is(err, netsim.ErrReset) {
		t.Fatalf("Establish = %v, want the client link's reset", err)
	}
	ch.Close() // waits for Handle
	if st := mb.Stats(); st.MbTLSSessions != 1 || st.FaultsObserved > 1 {
		t.Fatalf("joined %d sessions, observed %d faults; want 1 and at most 1", st.MbTLSSessions, st.FaultsObserved)
	}
	goleak.Wait(t, base)
}

// TestMiddleboxSurvivesGarbageConnection: random bytes (a port scan, a
// plaintext HTTP client) must be relayed transparently, not crash the
// middlebox or poison its state for later sessions.
func TestMiddleboxSurvivesGarbageConnection(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)

	// Garbage session.
	down1, up1Peer := buildChain(t, mb)
	garbage := []byte("GET / HTTP/1.1\r\nHost: nothing-tls-here\r\n\r\n")
	if _, err := down1.Write(garbage); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(garbage))
	if _, err := io.ReadFull(up1Peer, got); err != nil {
		t.Fatalf("garbage not relayed transparently: %v", err)
	}
	if !bytes.Equal(got, garbage) {
		t.Fatal("garbage corrupted in transit")
	}
	down1.Close()
	up1Peer.Close()

	// The same middlebox still serves mbTLS sessions.
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "after garbage", "fine")
}

// TestMiddleboxSplicesOversizedHello: a "ClientHello" announcing a
// 16 MiB body is not a hello this middlebox will join. It must not sit
// on the connection buffering toward the announced length — memory an
// unauthenticated peer gets to reserve per connection — nor break it:
// the bytes go on as they came, and the stream is spliced both ways.
func TestMiddleboxSplicesOversizedHello(t *testing.T) {
	e := newEnv(t)
	for _, mode := range []core.Mode{core.ClientSide, core.ServerSide} {
		t.Run(mode.String(), func(t *testing.T) {
			mb := e.middlebox(t, "proxy.example", mode)
			down, upPeer := buildChain(t, mb)
			relayed := func(from, to net.Conn, data []byte) {
				t.Helper()
				if _, err := from.Write(data); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(data))
				to.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				if _, err := io.ReadFull(to, got); err != nil {
					t.Fatalf("not relayed: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("corrupted in transit")
				}
			}
			body := append([]byte{1, 0xFF, 0xFF, 0xFF}, bytes.Repeat([]byte{0xEE}, 300)...)
			relayed(down, upPeer, tls12.RawRecord{Type: tls12.TypeHandshake, Payload: body}.Marshal())
			relayed(down, upPeer, []byte("and whatever follows"))
			relayed(upPeer, down, []byte("in both directions"))
		})
	}
}

// TestMiddleboxHandlesAbruptClientClose: a client vanishing
// mid-handshake must tear the session down without leaking the
// middlebox goroutines into a stuck state (verified by the middlebox
// accepting a subsequent session).
func TestMiddleboxHandlesAbruptClientClose(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)
	// Wired by hand: the test wants Handle's own return, not a Close
	// that forces it.
	down, downPeer := netsim.Pipe()
	up, upPeer := netsim.Pipe()
	done := make(chan error, 1)
	go func() { done <- mb.Handle(downPeer, up) }()

	// Half a ClientHello, then gone.
	hello := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte{1, 0, 0, 100, 3, 3}}
	if _, err := down.Write(hello.Marshal()[:8]); err != nil {
		t.Fatal(err)
	}
	down.Close()
	upPeer.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("middlebox session did not terminate after abrupt close")
	}

	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "after abrupt close", "ok")
}

// TestServerRejectsBogusAnnouncementSubchannel: a subchannel that opens
// with something other than a MiddleboxAnnouncement must fail the
// session rather than confuse the server.
func TestServerRejectsBogusAnnouncementSubchannel(t *testing.T) {
	e := newEnv(t)
	clientEnd, serverEnd := netsim.Pipe()

	go func() {
		// A malicious on-path entity injects a bogus subchannel before
		// relaying a legitimate ClientHello. Build the client side
		// manually: first the bogus encapsulated record, then a real
		// legacy handshake.
		inner := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte("not an announcement")}
		payload := append([]byte{9}, inner.Marshal()...)
		bogus := tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: payload}
		clientEnd.Write(bogus.Marshal()) //nolint:errcheck
		conn := tls12.NewClientConn(clientEnd, &tls12.Config{RootCAs: e.CA.Pool(), ServerName: "origin.example"})
		conn.Handshake() //nolint:errcheck
	}()

	_, err := core.Accept(serverEnd, e.serverConfig())
	if err == nil {
		t.Fatal("server accepted a session with a bogus announcement subchannel")
	}
}
