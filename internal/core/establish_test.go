package core

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/clock"
	"repro/internal/enclave"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// Write behaviours a faultConn can be switched to mid-establishment.
const (
	writesPass int32 = iota
	writesFail
	writesStall
)

// faultConn is a transport whose writes can be made to fail or to park
// until Close, from inside an Approve callback — the last application
// hook before key distribution — and whose clock the test moves.
type faultConn struct {
	net.Conn
	clk       *clock.Manual
	writes    atomic.Int32
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch c.writes.Load() {
	case writesFail:
		return 0, io.ErrClosedPipe
	case writesStall:
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Clock() clock.Clock { return c.clk }

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// endpointKnobs are the establishment fields ClientConfig and
// ServerConfig share, so one matrix row can configure either role.
type endpointKnobs struct {
	approve            func(MiddleboxSummary) bool
	middleboxTLS       *tls12.Config
	requireAttestation bool
}

// phaseTimers is how many phase timers establish's watcher has armed
// once it is in a phase.
var phaseTimers = map[HandshakePhase]int{PhasePrimaryHandshake: 1, PhaseSecondaryHandshakes: 2, PhaseKeyDistribution: 3}

// TestEstablishRoleSymmetry drives one failure matrix through both
// roles of establish on a one-middlebox chain. A row must fail with the
// same ErrorClass and the same typed timeout phase whichever end runs
// it, leak no goroutine, and leave no secret live: every connection
// that completed its handshake reports "already wiped". The endpoint
// under test runs on a manual clock at the default phase deadline: a
// deadline row moves it only once the watcher has armed the row's
// phase, so no earlier phase can be the one that fires, and checks the
// deadline fires at exactly DefaultHandshakeTimeout.
func TestEstablishRoleSymmetry(t *testing.T) {
	ca, err := certs.NewCA("mbtls test root")
	if err != nil {
		t.Fatal(err)
	}
	strangerCA, err := certs.NewCA("some other root")
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
	cases := []struct {
		name string
		// tune, if set, configures the endpoint under test; fc is its
		// transport.
		tune func(k *endpointKnobs, fc *faultConn)
		// silentPeer replaces the chain with a peer that never speaks.
		silentPeer bool
		// stallSecondary makes the endpoint's subchannel answer hang
		// until the mux fails.
		stallSecondary bool
		class          ErrorClass
		phase          HandshakePhase // non-empty: a HandshakeTimeoutError naming it
		completed      int            // connections that finished their handshake before the failure
	}{
		{name: "secondary handshake fails", class: ClassInternal, completed: 1,
			tune: func(k *endpointKnobs, _ *faultConn) {
				k.middleboxTLS = &tls12.Config{RootCAs: strangerCA.Pool()}
			}},
		{name: "approve veto", class: ClassInternal, completed: 2,
			tune: func(k *endpointKnobs, _ *faultConn) {
				k.approve = func(MiddleboxSummary) bool { return false }
			}},
		{name: "attestation required but missing", class: ClassInternal, completed: 1,
			tune: func(k *endpointKnobs, _ *faultConn) { k.requireAttestation = true }},
		{name: "key-distribution write fails", class: ClassReset, completed: 2,
			tune: func(k *endpointKnobs, fc *faultConn) {
				k.approve = func(MiddleboxSummary) bool { fc.writes.Store(writesFail); return true }
			}},
		{name: "deadline in primary handshake", class: ClassTimeout, phase: PhasePrimaryHandshake,
			silentPeer: true},
		{name: "deadline in secondary handshakes", class: ClassTimeout, phase: PhaseSecondaryHandshakes,
			stallSecondary: true, completed: 1},
		{name: "deadline in key distribution", class: ClassTimeout, phase: PhaseKeyDistribution, completed: 2,
			tune: func(k *endpointKnobs, fc *faultConn) {
				k.approve = func(MiddleboxSummary) bool { fc.writes.Store(writesStall); return true }
			}},
	}
	for _, tc := range cases {
		for _, clientEnd := range []bool{true, false} {
			name := tc.name + "/server"
			mode := ServerSide
			if clientEnd {
				name = tc.name + "/client"
				mode = ClientSide
			}
			t.Run(name, func(t *testing.T) {
				mb, err := NewMiddlebox(MiddleboxConfig{Name: "mb.example", Mode: mode, Certificate: mbCert})
				if err != nil {
					t.Fatal(err)
				}
				base := goleak.Base()

				ccfg := &ClientConfig{TLS: &tls12.Config{RootCAs: ca.Pool(), ServerName: "origin.example"}}
				scfg := &ServerConfig{
					TLS:               &tls12.Config{Certificate: serverCert},
					AcceptMiddleboxes: true,
					MiddleboxTLS:      &tls12.Config{RootCAs: ca.Pool()},
				}
				cliEnd, mbDown := netsim.Pipe()
				mbUp, srvEnd := netsim.Pipe()
				own, peer := cliEnd, srvEnd
				if !clientEnd {
					own, peer = srvEnd, cliEnd
				}
				// The clock starts at the wall clock's now: the chain's
				// certificates are checked against it.
				fc := &faultConn{Conn: own, clk: clock.NewManual(time.Now()), closed: make(chan struct{})}
				var k endpointKnobs
				if tc.tune != nil {
					tc.tune(&k, fc)
				}

				var r *role
				if clientEnd {
					ccfg.Approve = k.approve
					ccfg.MiddleboxTLS, ccfg.RequireMiddleboxAttestation = k.middleboxTLS, k.requireAttestation
					ccfg.MiddleboxVerifier = &enclave.Verifier{Authority: make([]byte, 32)}
					r, err = clientRole(ccfg, clock.Of(fc))
				} else {
					scfg.Approve = k.approve
					scfg.RequireMiddleboxAttestation = k.requireAttestation
					scfg.MiddleboxVerifier = &enclave.Verifier{Authority: make([]byte, 32)}
					if k.middleboxTLS != nil {
						scfg.MiddleboxTLS = k.middleboxTLS
					}
					r, err = serverRole(scfg, clock.Of(fc))
				}
				if err != nil {
					t.Fatal(err)
				}

				// The role is a plain struct, so the test observes every
				// connection establish creates by wrapping its two hooks.
				var mu sync.Mutex
				var conns []*tls12.Conn
				capture := func(c *tls12.Conn) {
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
				start, answer := r.start, r.answer
				r.start = func(rl *tls12.RecordLayer) (*tls12.Conn, error) {
					c, err := start(rl)
					if c != nil {
						capture(c)
					}
					return c, err
				}
				r.answer = func(m *mux, sub uint8) secondaryResult {
					if tc.stallSecondary {
						_, err := io.Copy(io.Discard, m.subchannel(sub, false))
						return secondaryResult{sub: sub, err: err}
					}
					res := answer(m, sub)
					if res.conn != nil {
						capture(res.conn)
					}
					return res
				}

				peerDone, release := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(peerDone)
					if tc.silentPeer {
						return
					}
					go mb.Handle(mbDown, mbUp) //nolint:errcheck
					var s *Session
					if clientEnd {
						s, _ = Accept(peer, scfg)
					} else {
						s, _ = Dial(peer, ccfg)
					}
					// Hold the peer's end open: closing it early would tear
					// the chain down under the endpoint being tested.
					<-release
					if s != nil {
						s.Close()
					}
				}()

				type result struct {
					sess *Session
					err  error
				}
				done := make(chan result, 1)
				go func() {
					sess, err := establish(fc, r)
					done <- result{sess, err}
				}()
				if tc.phase != "" {
					fc.clk.AwaitTimers(phaseTimers[tc.phase])
					fc.clk.Advance(DefaultHandshakeTimeout - time.Nanosecond)
					select {
					case res := <-done:
						t.Fatalf("establish returned (%v) 1ns before the %s deadline", res.err, tc.phase)
					default:
					}
					fc.clk.Advance(time.Nanosecond)
				}
				res := <-done
				if err = res.err; err == nil {
					res.sess.Close()
					t.Fatal("establish succeeded")
				}
				if got := ClassifyError(err); got != tc.class {
					t.Errorf("error class = %s (%v), want %s", got, err, tc.class)
				}
				var hte *HandshakeTimeoutError
				if errors.As(err, &hte) != (tc.phase != "") || (hte != nil && hte.Phase != tc.phase) {
					t.Errorf("err = %v, want a timeout in phase %q", err, tc.phase)
				}

				completed := 0
				for _, c := range conns {
					_, err := c.ExportSessionKeys()
					if !c.ConnectionState().HandshakeComplete {
						continue
					}
					completed++
					if err == nil || !strings.Contains(err.Error(), "already wiped") {
						t.Errorf("a completed connection's keys outlived the failed establishment (export err = %v)", err)
					}
				}
				if completed != tc.completed {
					t.Errorf("%d connections completed their handshake, want %d", completed, tc.completed)
				}

				close(release)
				for _, c := range []net.Conn{cliEnd, mbDown, mbUp, srvEnd} {
					c.Close()
				}
				<-peerDone
				goleak.Wait(t, base)
			})
		}
	}
}
