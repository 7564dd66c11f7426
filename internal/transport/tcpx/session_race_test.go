package tcpx_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
	"repro/internal/transport/tcpx"
)

// raceSessions mirrors the netsim concurrent-sessions test: 64 clean
// sessions at once through one shared middlebox host, over real
// loopback sockets instead of simulated pipes.
const raceSessions = 64

// raceShards fixes the hosts' shard count so cross-shard admission and
// the SO_REUSEPORT listener fan-out are exercised even on single-core
// machines.
const raceShards = 8

// TestConcurrentSessionsOverTCP is the loopback-TCP re-run of netsim's
// TestConcurrentSessionsThroughFaultyNetwork: a fleet of 64 complete
// mbTLS sessions through one shared middlebox and server host pair,
// plus one connection that dies by a real kernel RST (SO_LINGER=0 +
// Close) mid-handshake. Every clean session must stay fully functional
// while the host observes and absorbs the reset — the same
// fault-isolation property the simulator asserts, demonstrated against
// real ECONNRESET instead of an injected one.
func TestConcurrentSessionsOverTCP(t *testing.T) {
	ca, err := certs.NewCA("tcp race root")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.Issue("origin.example", []string{"origin.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbCert, err := ca.Issue("mb.example", []string{"mb.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}

	pool := tls12.NewRecordBufPool(2 * raceSessions)
	tr := tcpx.New(tcpx.Config{ReusePort: true, Pool: pool})

	scfg := &core.ServerConfig{
		TLS:               &tls12.Config{Certificate: serverCert},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: ca.Pool()},
		HandshakeTimeout:  30 * time.Second,
	}
	srvHost, err := sessionhost.New(sessionhost.Config{
		Name:        "server",
		MaxSessions: 2 * raceSessions,
		Shards:      raceShards,
		Handler: sessionhost.NewServerHandler(scfg, func(s *core.Session) error {
			buf := make([]byte, 256)
			nr, err := s.Read(buf)
			if err != nil {
				return err
			}
			_, err = s.Write(buf[:nr])
			return err
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srvLns, err := tr.ListenShards("127.0.0.1:0", srvHost.Shards())
	if err != nil {
		t.Fatal(err)
	}
	srvAddr := srvLns[0].Addr().String()
	go srvHost.ServeListeners(srvLns) //nolint:errcheck
	defer srvHost.Close()             //nolint:errcheck

	mb, err := core.NewMiddlebox(core.MiddleboxConfig{
		Name: "mb.example", Mode: core.ClientSide, Certificate: mbCert,
		BufPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	mbHost, err := sessionhost.New(sessionhost.Config{
		Name:        "mb",
		MaxSessions: 2 * raceSessions,
		Shards:      raceShards,
		BufPool:     pool,
		Handler: sessionhost.NewMiddleboxHandler(mb, func() (net.Conn, error) {
			return tr.Dial(srvAddr)
		}),
		MiddleboxStats: mb.Stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	mbLns, err := tr.ListenShards("127.0.0.1:0", mbHost.Shards())
	if err != nil {
		t.Fatal(err)
	}
	mbAddr := mbLns[0].Addr().String()
	go mbHost.ServeListeners(mbLns) //nolint:errcheck
	defer mbHost.Close()            //nolint:errcheck

	ccfg := func() *core.ClientConfig {
		return &core.ClientConfig{
			TLS:              &tls12.Config{RootCAs: ca.Pool(), ServerName: "origin.example"},
			HandshakeTimeout: 30 * time.Second,
		}
	}

	var wg sync.WaitGroup
	okErrs := make(chan error, raceSessions)
	for i := 0; i < raceSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := tr.Dial(mbAddr)
			if err != nil {
				okErrs <- fmt.Errorf("client %d dial: %w", i, err)
				return
			}
			sess, err := core.Dial(conn, ccfg())
			if err != nil {
				conn.Close()
				okErrs <- fmt.Errorf("client %d handshake: %w", i, err)
				return
			}
			defer sess.Close()
			msg := []byte(fmt.Sprintf("over loopback tcp %d", i))
			if _, err := sess.Write(msg); err != nil {
				okErrs <- fmt.Errorf("client %d write: %w", i, err)
				return
			}
			sess.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(sess, buf); err != nil {
				okErrs <- fmt.Errorf("client %d read: %w", i, err)
				return
			}
			if string(buf) != string(msg) {
				okErrs <- fmt.Errorf("client %d echo = %q, want %q", i, buf, msg)
			}
		}(i)
	}

	// The bad client: a genuine mbTLS dial whose reads are stalled, so
	// the middlebox sniffs a real ClientHello, joins, and is parked
	// mid-handshake waiting for the client's next flight — then the
	// client aborts with a real kernel RST (SO_LINGER=0 + Close emits
	// RST instead of FIN), and the host's reader surfaces ECONNRESET
	// exactly where netsim's FaultReset-at-offset-300 injects one.
	badDone := make(chan error, 1)
	go func() {
		conn, err := tr.Dial(mbAddr)
		if err != nil {
			badDone <- err
			return
		}
		stalled := &stallRead{Conn: conn, unblock: make(chan struct{})}
		dialErr := make(chan error, 1)
		go func() {
			sess, err := core.Dial(stalled, ccfg())
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
		conn.(*tcpx.Conn).SetLinger(0)                         //nolint:errcheck
		conn.Close()
		close(stalled.unblock)
		badDone <- <-dialErr
	}()

	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	select {
	case <-fleetDone:
	case <-time.After(60 * time.Second):
		t.Fatal("clean-path fleet wedged")
	}
	close(okErrs)
	for err := range okErrs {
		t.Errorf("clean session failed beside the RST one: %v", err)
	}
	select {
	case err := <-badDone:
		if err == nil {
			t.Error("RST-mid-handshake path produced a working session")
		} else if cls := core.ClassifyError(err); !cls.Transient() && cls != core.ClassCleanClose {
			t.Errorf("RST path surfaced class %s (%v), want a transport-failure class", cls, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bad client wedged")
	}

	// The host must have seen the aborted connection fail; the clean
	// fleet must all have completed. Failure accounting is asynchronous
	// with the client's Close, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := mbHost.Snapshot()
		if m.Failed >= 1 || time.Now().After(deadline) {
			if m.Accepted < raceSessions+1 {
				t.Errorf("middlebox host admitted %d sessions, want >= %d", m.Accepted, raceSessions+1)
			}
			if m.Failed < 1 {
				t.Errorf("middlebox host recorded %d failed sessions, want >= 1 (the RST one)", m.Failed)
			}
			if len(m.PerShard) != raceShards {
				t.Errorf("metrics carry %d shards, want %d", len(m.PerShard), raceShards)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := pool.Stats(); st.Gets == 0 {
		t.Error("shared buffer pool was never used (relay and tcpx read path both feed from it)")
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
		a.(*tcpx.Conn).SetLinger(0) //nolint:errcheck
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
