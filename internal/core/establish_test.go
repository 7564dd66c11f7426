package core

import (
	"errors"
	"fmt"
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
	clk        *clock.Manual
	writes     atomic.Int32
	stallReads bool
	closed     chan struct{}
	closeOnce  sync.Once
}

func newFaultConn(c net.Conn) *faultConn {
	// The clock starts at the wall clock's now: the chain's certificates
	// are checked against it.
	return &faultConn{Conn: c, clk: clock.NewManual(time.Now()), closed: make(chan struct{})}
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

// Read parks until Close when stallReads is set: nothing the peer sends
// arrives.
func (c *faultConn) Read(p []byte) (int, error) {
	if c.stallReads {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Read(p)
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
				fc := newFaultConn(own)
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
	middleboxJoinStalls(t, ca, serverCert, mbCert)
}

// mbJoinClasses is what the endpoints of a middlebox join that stalled
// in a phase report (DESIGN.md §7): the endpoint the middlebox converses
// with — the client of a client-side middlebox, the server of a
// server-side one — and the other endpoint, whose session (past the
// hello sniff) is already established and fails its first Read.
var mbJoinClasses = map[HandshakePhase]struct{ owner, far ErrorClass }{
	PhaseHelloSniff:         {ClassCleanClose, ClassCleanClose},
	PhaseSecondaryHandshake: {ClassCleanClose, ClassIntegrity},
	PhaseKeyMaterial:        {ClassReset, ClassIntegrity},
	PhaseDelegation:         {ClassReset, ClassIntegrity},
}

// stalledCredentials holds an endpoint's proxysig credential delivery
// until released, then delivers as usual.
type stalledCredentials struct {
	accountabilityMode
	entered func()
	release <-chan struct{}
}

func (s stalledCredentials) establishCredentials(secs []secondaryResult, ct *ChainTicket, clk clock.Clock) (*sessionAudit, error) {
	s.entered()
	<-s.release
	return s.accountabilityMode.establishCredentials(secs, ct, clk)
}

// middleboxJoinStalls is TestEstablishRoleSymmetry's middlebox half: a
// one-middlebox chain stalls at each join phase × placement × keying
// (attest, proxysig, neighbor-keys), generated from the axes. The
// endpoint the middlebox converses with (the owner) stalls the step the
// phase waits for; the middlebox, on a manual clock, must fail at
// exactly DefaultHandshakeTimeout with a HandshakeTimeoutError naming
// the phase; each endpoint must report its mbJoinClasses class, the
// same on both placements; no goroutine may leak, and every connection
// that completed its handshake must answer "already wiped".
func middleboxJoinStalls(t *testing.T, ca *certs.CA, serverCert, mbCert *tls12.Certificate) {
	phases := []HandshakePhase{PhaseHelloSniff, PhaseSecondaryHandshake, PhaseKeyMaterial, PhaseDelegation}
	for i, phase := range phases {
		for _, mode := range []Mode{ClientSide, ServerSide} {
			for _, keying := range []string{"attest", "proxysig", "neighbor-keys"} {
				// Cells that cannot exist: a warrant outside proxysig, and a
				// server-side middlebox joining a neighbor-keys session.
				if phase == PhaseDelegation && keying != "proxysig" || keying == "neighbor-keys" && mode == ServerSide {
					continue
				}
				t.Run(fmt.Sprintf("middlebox stalls in %s/%s/%s", phase, mode, keying), func(t *testing.T) {
					middleboxJoinStall(t, ca, serverCert, mbCert, phase, i+1, mode, keying)
				})
			}
		}
	}
}

func middleboxJoinStall(t *testing.T, ca *certs.CA, serverCert, mbCert *tls12.Certificate, phase HandshakePhase, armed int, mode Mode, keying string) {
	acct := AccountAttest
	if keying == "proxysig" {
		acct = AccountProxySig
	}
	mb, err := NewMiddlebox(MiddleboxConfig{Name: "mb.example", Mode: mode, Certificate: mbCert, Accountability: acct})
	if err != nil {
		t.Fatal(err)
	}
	base := goleak.Base()
	ccfg := &ClientConfig{
		TLS:            &tls12.Config{RootCAs: ca.Pool(), ServerName: "origin.example"},
		Accountability: acct,
		NeighborKeys:   keying == "neighbor-keys",
	}
	scfg := &ServerConfig{
		TLS:               &tls12.Config{Certificate: serverCert},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: ca.Pool()},
		Accountability:    acct,
	}
	cliEnd, mbDown := netsim.Pipe()
	mbUp, srvEnd := netsim.Pipe()
	cli, srv, down := newFaultConn(cliEnd), newFaultConn(srvEnd), newFaultConn(mbDown)
	down.stallReads = phase == PhaseHelloSniff // the client's hello never arrives
	cr, err := clientRole(ccfg, clock.Of(cli))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := serverRole(scfg, clock.Of(srv))
	if err != nil {
		t.Fatal(err)
	}
	owner, far, ownerConn, farConn := cr, sr, cli, srv
	if mode == ServerSide {
		owner, far, ownerConn, farConn = sr, cr, srv, cli
	}

	// Both roles' hooks record every connection establish creates, and
	// report once start has sent (or awaits) the primary hello.
	var mu sync.Mutex
	var conns []*tls12.Conn
	capture := func(c *tls12.Conn) {
		if c != nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}
	var started sync.WaitGroup
	for _, r := range []*role{cr, sr} {
		start, answer := r.start, r.answer
		started.Add(1)
		r.start = func(rl *tls12.RecordLayer) (*tls12.Conn, error) {
			defer started.Done()
			c, err := start(rl)
			capture(c)
			return c, err
		}
		r.answer = func(m *mux, sub uint8) secondaryResult {
			res := answer(m, sub)
			capture(res.conn)
			return res
		}
	}

	// The owner stalls the step the phase waits for: it answers the
	// middlebox's subchannel only by reading until the transport dies,
	// or holds approval or the warrant until the middlebox gave up.
	stalled, gaveUp := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	entered := func() { stallOnce.Do(func() { close(stalled) }) }
	switch phase {
	case PhaseSecondaryHandshake:
		answer := owner.answer
		owner.answer = func(m *mux, sub uint8) secondaryResult {
			if sub == neighborSubchannel {
				return answer(m, sub)
			}
			entered()
			_, err := io.Copy(io.Discard, m.subchannel(sub, false))
			if err == nil {
				err = io.EOF
			}
			return secondaryResult{sub: sub, err: err}
		}
	case PhaseKeyMaterial:
		owner.approve = func(MiddleboxSummary) bool { entered(); <-gaveUp; return true }
	case PhaseDelegation:
		owner.acct = stalledCredentials{owner.acct, entered, gaveUp}
	}

	type result struct {
		sess *Session
		err  error
	}
	mbDone := make(chan error, 1)
	go func() { mbDone <- mb.Handle(down, mbUp) }()
	ownerDone, farDone := make(chan result, 1), make(chan result, 1)
	go func() {
		sess, err := establish(ownerConn, owner)
		ownerDone <- result{sess, err}
	}()
	go func() {
		sess, err := establish(farConn, far)
		farDone <- result{sess, err}
	}()

	// Move the middlebox's clock only once the chain sits where the
	// phase says: both primaries waiting at the hello sniff; afterwards
	// the far endpoint established, the owner parked in its stall (and
	// past its primary handshake), the middlebox in the phase.
	var farRes result
	if phase == PhaseHelloSniff {
		started.Wait()
	} else {
		if farRes = <-farDone; farRes.err != nil {
			t.Fatalf("far endpoint: %v", farRes.err)
		}
		<-stalled
		ownerConn.clk.AwaitTimers(phaseTimers[PhaseSecondaryHandshakes])
	}
	down.clk.AwaitTimers(armed) // the middlebox's phases so far, one timer each
	down.clk.Advance(DefaultHandshakeTimeout - time.Nanosecond)
	select {
	case err := <-mbDone:
		t.Fatalf("Handle returned (%v) 1ns before the %s deadline", err, phase)
	default:
	}
	down.clk.Advance(time.Nanosecond)
	err = <-mbDone
	var hte *HandshakeTimeoutError
	if !errors.As(err, &hte) || hte.Phase != phase || ClassifyError(err) != ClassTimeout {
		t.Fatalf("Handle = %v, want a timeout in phase %s", err, phase)
	}
	close(gaveUp)

	want := mbJoinClasses[phase]
	ownerRes := <-ownerDone
	if ownerRes.err == nil {
		ownerRes.sess.Close()
		t.Fatal("the owner established through a middlebox that gave up")
	}
	if got := ClassifyError(ownerRes.err); got != want.owner {
		t.Errorf("owner error class = %s (%v), want %s", got, ownerRes.err, want.owner)
	}
	farErr := farRes.err
	if phase == PhaseHelloSniff {
		farErr = (<-farDone).err
	} else {
		_, farErr = farRes.sess.Read(make([]byte, 1))
		farRes.sess.Close()
	}
	if got := ClassifyError(farErr); got != want.far {
		t.Errorf("far endpoint error class = %s (%v), want %s", got, farErr, want.far)
	}

	for _, c := range []net.Conn{cli, srv, down, mbUp} {
		c.Close()
	}
	for _, c := range conns {
		_, err := c.ExportSessionKeys()
		if c.ConnectionState().HandshakeComplete && (err == nil || !strings.Contains(err.Error(), "already wiped")) {
			t.Errorf("a completed connection's keys outlived the failed join (export err = %v)", err)
		}
	}
	goleak.Wait(t, base)
}
