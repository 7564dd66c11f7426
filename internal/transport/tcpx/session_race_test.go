package tcpx_test

import (
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/chain/chaintest"
	"repro/internal/core"
	"repro/internal/tls12"
	"repro/internal/transport/tcpx"
)

// TestConcurrentSessionsOverTCP runs the shared concurrent-sessions
// body (chaintest.ConcurrentSessions, the one netsim's
// TestConcurrentSessionsThroughFaultyNetwork runs) over real loopback
// sockets with SO_REUSEPORT listeners. The doomed client dies
// by a real kernel RST (SO_LINGER=0 + Close) mid-handshake: the same
// fault-isolation property the simulator asserts, demonstrated against
// real ECONNRESET instead of an injected one — and the host must count
// the failure.
func TestConcurrentSessionsOverTCP(t *testing.T) {
	h := chaintest.NewHosted(t, chain.TransportTCP)
	// The bad client: a genuine mbTLS dial whose reads are stalled, so
	// the middlebox sniffs a real ClientHello, joins, and is parked
	// mid-handshake waiting for the client's next flight — then the
	// client aborts with a real kernel RST (SO_LINGER=0 + Close emits
	// RST instead of FIN), and the host's reader surfaces ECONNRESET
	// exactly where netsim's FaultReset-at-offset-300 injects one.
	mbHost := chaintest.ConcurrentSessions(t, h, func(conn net.Conn, ccfg *core.ClientConfig) error {
		stalled := &stallRead{Conn: conn, unblock: make(chan struct{})}
		dialErr := make(chan error, 1)
		go func() {
			sess, err := core.Dial(stalled, ccfg)
			if err == nil {
				sess.Close()
			}
			dialErr <- err
		}()
		// Wait for the middlebox to join before aborting: the first byte
		// of the relayed ServerHello flight arriving back at the client
		// proves the ClientHello was sniffed and the chain established.
		// (The session's reads are parked inside stallRead, so the raw
		// conn is free for the harness to observe.) A pre-join RST would
		// be absorbed by the host's transparent-relay fallback and not
		// count as a session fault, so a fixed sleep here is a race.
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		io.ReadFull(conn, make([]byte, 1))                     //nolint:errcheck
		conn.(*net.TCPConn).SetLinger(0)                       //nolint:errcheck
		conn.Close()
		close(stalled.unblock)
		return <-dialErr
	})

	// The host must have seen the aborted connection fail. Failure
	// accounting is asynchronous with the client's Close, so poll
	// briefly.
	deadline := time.Now().Add(10 * time.Second)
	for mbHost.Snapshot().Failed < 1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if failed := mbHost.Snapshot().Failed; failed < 1 {
		t.Errorf("middlebox host recorded %d failed sessions, want >= 1 (the RST one)", failed)
	}
}

// stallRead withholds inbound bytes from the handshake until unblock
// closes, pinning the peer mid-handshake so an abort lands at a
// deterministic protocol position.
type stallRead struct {
	net.Conn
	unblock chan struct{}
}

func (c *stallRead) Read(p []byte) (int, error) {
	<-c.unblock
	return c.Conn.Read(p)
}

// TestClassifyErrorParityOverTCP pins the fault→class matrix on real
// sockets: each kernel-produced failure mode must classify identically
// to its netsim-injected counterpart (DESIGN.md §7's table), so code
// written against the simulator's error vocabulary behaves the same in
// production.
func TestClassifyErrorParityOverTCP(t *testing.T) {
	tr := tcpx.Default()
	pair := func(t *testing.T) (a, b net.Conn, done func()) {
		t.Helper()
		ln, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		acc := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err == nil {
				acc <- c
			} else {
				acc <- nil
			}
		}()
		a, err = tr.Dial(ln.Addr().String())
		if err != nil {
			ln.Close()
			t.Fatalf("dial: %v", err)
		}
		b = <-acc
		if b == nil {
			a.Close()
			ln.Close()
			t.Fatal("accept failed")
		}
		return a, b, func() { a.Close(); b.Close(); ln.Close() }
	}

	t.Run("RSTClassifiesReset", func(t *testing.T) {
		a, b, done := pair(t)
		defer done()
		a.(*net.TCPConn).SetLinger(0) //nolint:errcheck
		a.Close()
		b.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		_, err := io.ReadFull(b, make([]byte, 1))
		if err == nil {
			t.Fatal("read after RST succeeded")
		}
		if !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read after RST = %v, want ECONNRESET", err)
		}
		if cls := core.ClassifyError(err); cls != core.ClassReset {
			t.Fatalf("RST classified %s, want %s", cls, core.ClassReset)
		}
	})

	t.Run("ReadDeadlineClassifiesTimeout", func(t *testing.T) {
		a, _, done := pair(t)
		defer done()
		a.SetReadDeadline(time.Now().Add(30 * time.Millisecond)) //nolint:errcheck
		_, err := a.Read(make([]byte, 1))
		if cls := core.ClassifyError(err); cls != core.ClassTimeout {
			t.Fatalf("deadline expiry (%v) classified %s, want %s", err, cls, core.ClassTimeout)
		}
	})

	t.Run("CleanCloseClassifiesCleanClose", func(t *testing.T) {
		a, b, done := pair(t)
		defer done()
		a.Close()
		b.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		_, err := b.Read(make([]byte, 1))
		if cls := core.ClassifyError(err); cls != core.ClassCleanClose {
			t.Fatalf("FIN (%v) classified %s, want %s", err, cls, core.ClassCleanClose)
		}
	})

	t.Run("OwnCloseClassifiesReset", func(t *testing.T) {
		a, _, done := pair(t)
		defer done()
		a.Close()
		_, err := a.Read(make([]byte, 1))
		if cls := core.ClassifyError(err); cls != core.ClassReset {
			t.Fatalf("read-after-own-close (%v) classified %s, want %s", err, cls, core.ClassReset)
		}
	})

	// A silent peer — connected but never answering — must surface the
	// handshake phase deadline as ClassTimeout, exactly as netsim's
	// FaultStall does.
	t.Run("SilentPeerClassifiesTimeout", func(t *testing.T) {
		a, _, done := pair(t)
		defer done()
		_, err := core.Dial(a, &core.ClientConfig{
			TLS:              &tls12.Config{ServerName: "origin.example"},
			HandshakeTimeout: 150 * time.Millisecond,
		})
		if err == nil {
			t.Fatal("handshake against a silent peer succeeded")
		}
		var hte *core.HandshakeTimeoutError
		if !errors.As(err, &hte) {
			t.Fatalf("err = %v (%T), want *HandshakeTimeoutError", err, err)
		}
		if cls := core.ClassifyError(err); cls != core.ClassTimeout {
			t.Fatalf("silent peer classified %s, want %s", cls, core.ClassTimeout)
		}
	})
}
