// Package chaintest holds the test bodies that run on chain's hosted
// topology over more than one transport, the way
// transport/conformancetest holds the Conn contract's: each backend
// keeps its own Test entry point and calls the shared body.
package chaintest

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
)

// Sessions is how many clean concurrent sessions the body drives
// through one shared middlebox host (the acceptance floor is 64).
const Sessions = 64

// NewHosted starts an empty hosted topology on transport, torn down
// with the test; its host-scoped buffer pool is sized for
// ConcurrentSessions.
func NewHosted(t *testing.T, transport string) *chain.Hosted {
	t.Helper()
	h, err := chain.NewHosted(transport, tls12.NewRecordBufPool(2*Sessions))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// ConcurrentSessions runs a fleet of complete mbTLS sessions at once
// through one shared origin host and one shared middlebox host on h —
// Sessions over clean paths, one whose client dies mid-handshake — and
// requires every clean session to stay fully functional while the
// doomed one fails: a fault on one session must never bleed into
// another, and sessions sharing a host must not share fate. Run under
// -race (tier-1 does), this exercises the transport, the mux, the relay
// goroutines, the host registry, and the shared bounded buffer pool
// concurrently.
//
// kill is how the doomed client dies: it runs the client side over conn
// (dialed from the node "client-bad") and returns Dial's error. The
// middlebox's host is returned for what more a transport asserts of it.
func ConcurrentSessions(t *testing.T, h *chain.Hosted, kill func(conn net.Conn, ccfg *core.ClientConfig) error) *sessionhost.Host {
	t.Helper()
	hcfg := sessionhost.Config{Name: "server", MaxSessions: 2 * Sessions,
		Handler: sessionhost.NewServerHandler(h.PKI.ServerConfig(), chain.Echo)}
	_, srvAddr, err := h.Serve("server", hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg.Name = "mb"
	hop, err := h.Middlebox("mb", core.MiddleboxConfig{Mode: core.ClientSide, BufPool: h.BufPool}, hcfg, srvAddr)
	if err != nil {
		t.Fatal(err)
	}

	// One clean session: establish from its own node, one echo, close.
	clean := func(i int) error {
		name := fmt.Sprintf("client-ok-%d", i)
		conn, err := h.Fabric.Dialer(name, hop.Addr)()
		if err != nil {
			return fmt.Errorf("%s dial: %w", name, err)
		}
		sess, err := core.Dial(conn, h.PKI.ClientConfig())
		if err != nil {
			conn.Close()
			return fmt.Errorf("%s handshake: %w", name, err)
		}
		defer sess.Close()
		msg := []byte(fmt.Sprintf("through clean path %d", i))
		if _, err := sess.Write(msg); err != nil {
			return fmt.Errorf("%s write: %w", name, err)
		}
		sess.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(sess, buf); err != nil {
			return fmt.Errorf("%s read: %w", name, err)
		}
		if string(buf) != string(msg) {
			return fmt.Errorf("%s echo = %q, want %q", name, buf, msg)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < Sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := clean(i); err != nil {
				t.Errorf("clean-path session failed beside a doomed one: %v", err)
			}
		}()
	}

	badDone := make(chan error, 1)
	go func() {
		conn, err := h.Fabric.Dialer("client-bad", hop.Addr)()
		if err != nil {
			badDone <- err
			return
		}
		badDone <- kill(conn, h.PKI.ClientConfig())
	}()

	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	select {
	case <-fleetDone:
	case <-time.After(60 * time.Second):
		t.Fatal("clean-path fleet wedged")
	}
	select {
	case err := <-badDone:
		if err == nil {
			t.Error("the doomed path produced a working session")
		} else if cls := core.ClassifyError(err); cls != core.ClassTimeout && cls != core.ClassReset && cls != core.ClassCleanClose {
			t.Errorf("doomed path surfaced class %s (%v), want a transport-failure class", cls, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("doomed session wedged")
	}

	m := hop.Host.Snapshot()
	if m.Accepted < Sessions+1 {
		t.Errorf("middlebox host admitted %d sessions, want >= %d", m.Accepted, Sessions+1)
	}
	if st := h.BufPool.Stats(); st.Gets == 0 {
		t.Error("host-scoped buffer pool was never used by the relay")
	}
	return hop.Host
}
