package core_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

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
