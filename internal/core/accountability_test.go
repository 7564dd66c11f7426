package core_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/hsfast"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
)

// This file exercises the pluggable accountability layer: proxysig
// sessions end to end (client-side, server-side, mixed, resumed), the
// adversarial failure paths (expired/tampered delegations, forged
// evidence, mode mismatch), and the config-validation seams. The
// attestation mode's wire behavior is pinned separately by the golden
// transcript test.

func proxySigClient(e *env) *core.ClientConfig {
	ccfg := e.clientConfig()
	ccfg.Accountability = core.AccountProxySig
	return ccfg
}

func proxySigServer(e *env) *core.ServerConfig {
	scfg := e.serverConfig()
	scfg.Accountability = core.AccountProxySig
	return scfg
}

func proxySigOpt(cfg *core.MiddleboxConfig) {
	cfg.Accountability = core.AccountProxySig
}

func TestProxySigClientSideSession(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	mb := e.middlebox(t, "mb.example", core.ClientSide, proxySigOpt)
	client, server := runSession(t, proxySigClient(e), e.serverConfig(), mb)
	exchange(t, client, server, "proxysig data", "ok")

	if st := client.Stats(); st.ProxySigSessions != 1 || st.AttestSessions != 0 {
		t.Fatalf("client stats = %+v, want a proxysig session", st)
	}
	// The auditing endpoint closes first: evidence collection needs the
	// chain alive.
	if err := client.Close(); err != nil {
		t.Fatalf("client close (evidence settlement): %v", err)
	}
	server.Close()
	st := mb.Stats()
	if st.ProxySig != 1 {
		t.Fatalf("middlebox stats = %+v, want one proxysig session", st)
	}
	if st.EvidenceSigned != 1 {
		t.Fatalf("middlebox stats = %+v, want one signed evidence statement", st)
	}
	waitGoroutines(t, base)
}

func TestProxySigServerSideSession(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	mb := e.middlebox(t, "srv-mb.example", core.ServerSide, proxySigOpt)
	client, server := runSession(t, e.clientConfig(), proxySigServer(e), mb)
	exchange(t, client, server, "server-side proxysig", "ok")

	if st := server.Stats(); st.ProxySigSessions != 1 {
		t.Fatalf("server stats = %+v, want a proxysig session", st)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("server close (evidence settlement): %v", err)
	}
	client.Close()
	if st := mb.Stats(); st.ProxySig != 1 || st.EvidenceSigned != 1 {
		t.Fatalf("middlebox stats = %+v, want one proxysig session with evidence", st)
	}
	waitGoroutines(t, base)
}

func TestProxySigMixedChain(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	cmb := e.middlebox(t, "client-mb.example", core.ClientSide, proxySigOpt)
	smb := e.middlebox(t, "server-mb.example", core.ServerSide, proxySigOpt)
	client, server := runSession(t, proxySigClient(e), proxySigServer(e), cmb, smb)
	exchange(t, client, server, "both sides audited", "ok")

	// Each endpoint audits its own side. The client closes first and
	// must settle cleanly; the server's settlement races the chain
	// teardown the client's close started, so only its return is
	// awaited, not its verdict.
	if err := client.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	server.Close() //nolint:errcheck
	if st := cmb.Stats(); st.ProxySig != 1 || st.EvidenceSigned != 1 {
		t.Fatalf("client-side middlebox stats = %+v", st)
	}
	if st := smb.Stats(); st.ProxySig != 1 {
		t.Fatalf("server-side middlebox stats = %+v", st)
	}
	waitGoroutines(t, base)
}

// TestProxySigEvidenceCountsTraffic pins that the evidence digests are
// fed: a session that moved records yields evidence whose record
// counts the endpoint accepted (a middlebox that under- or over-counts
// would sign different digests next time the endpoint compares runs).
func TestProxySigEvidenceCountsTraffic(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "mb.example", core.ClientSide, proxySigOpt)
	client, server := runSession(t, proxySigClient(e), e.serverConfig(), mb)
	for i := 0; i < 3; i++ {
		exchange(t, client, server, "ping", "pong")
	}
	if err := client.Close(); err != nil {
		t.Fatalf("close after traffic: %v", err)
	}
	server.Close()
	if st := mb.Stats(); st.RecordsRekeyed == 0 {
		t.Fatalf("middlebox resealed nothing: %+v", st)
	}
}

// TestProxySigExpiredDelegation: each party judges a warrant on its own
// transport's clock, so a clock two hours fast at either end of the hop
// fails the delegation — a fast middlebox finds the endpoint's warrant
// expired, a fast endpoint mints one not yet valid — and the middlebox
// refuses it with a certificate_expired alert, whichever side of the
// chain it serves. A slow endpoint clock cannot stand in for an expired
// warrant: the endpoint checks certificates on the same clock, and the
// chain's certificates start only an hour back, so such an endpoint
// fails its own certificate check before it mints anything.
func TestProxySigExpiredDelegation(t *testing.T) {
	for _, placement := range []core.Mode{core.ClientSide, core.ServerSide} {
		for _, fast := range []string{"endpoint", "middlebox"} {
			t.Run(placement.String()+"/fast-"+fast, func(t *testing.T) {
				e := newEnv(t)
				base := goleak.Base()
				mb := e.middlebox(t, "mb.example", placement, proxySigOpt)
				ccfg, scfg := e.clientConfig(), e.serverConfig()
				// The endpoint on the middlebox's side mints its warrant:
				// the client on hop 0, the server on hop 1.
				auditHop := 0
				if placement == core.ClientSide {
					ccfg.Accountability = core.AccountProxySig
				} else {
					scfg.Accountability = core.AccountProxySig
					auditHop = 1
				}
				// A Link's ends run client-side first; the middlebox's own
				// clock is that of its downstream conn, hop 0's far end.
				ch, err := chain.Wire(func(hop int) (net.Conn, net.Conn, error) {
					down, up := netsim.Pipe()
					switch {
					case fast == "middlebox" && hop == 0:
						return down, clockedConn{up, aheadClock{}}, nil
					case fast == "endpoint" && hop == auditHop && hop == 0:
						return clockedConn{down, aheadClock{}}, up, nil
					case fast == "endpoint" && hop == auditHop:
						return down, clockedConn{up, aheadClock{}}, nil
					}
					return down, up, nil
				}, mb)
				if err != nil {
					t.Fatal(err)
				}
				type res struct {
					sess *core.Session
					err  error
				}
				cch, sch := make(chan res, 1), make(chan res, 1)
				go func() {
					s, err := core.Dial(ch.Client, ccfg)
					cch <- res{s, err}
				}()
				go func() {
					s, err := core.Accept(ch.Server, scfg)
					sch <- res{s, err}
				}()
				cr, sr := <-cch, <-sch
				refused := cr.err
				if placement == core.ServerSide {
					refused = sr.err
				}
				if refused == nil {
					t.Fatal("a warrant outside its validity window was accepted")
				}
				if cls := core.ClassifyError(refused); cls != core.ClassRemoteAlert {
					t.Fatalf("skewed delegation classified as %s (err: %v), want %s", cls, refused, core.ClassRemoteAlert)
				}
				var ae *tls12.AlertError
				if !errors.As(refused, &ae) || ae.Description != tls12.AlertCertificateExpired {
					t.Fatalf("err = %v, want a remote certificate_expired alert", refused)
				}
				for _, r := range []res{cr, sr} {
					if r.sess != nil {
						r.sess.Close()
					}
				}
				ch.Close()
				waitGoroutines(t, base)
			})
		}
	}
}

func TestProxySigTamperedDelegation(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	// The middlebox substitutes the warrant it echoes in evidence: its
	// signature stays honest, but the bytes no longer match what the
	// endpoint minted.
	mb := e.middlebox(t, "mb.example", core.ClientSide, proxySigOpt, func(cfg *core.MiddleboxConfig) {
		cfg.AccountabilityFaults = &core.AccountabilityFaults{
			MutateDelegation: func(d []byte) []byte {
				d = append([]byte(nil), d...)
				d[1] ^= 0x80 // flip a bit inside the warrant body
				return d
			},
		}
	})
	client, server := runSession(t, proxySigClient(e), e.serverConfig(), mb)
	exchange(t, client, server, "data", "ok")

	err := client.Close()
	if err == nil {
		t.Fatal("Close accepted evidence echoing a substituted delegation")
	}
	var ace *core.AccountabilityError
	if !errors.As(err, &ace) {
		t.Fatalf("err = %v (%T), want *AccountabilityError", err, err)
	}
	if cls := core.ClassifyError(err); cls != core.ClassIntegrity {
		t.Fatalf("tampered delegation classified as %s, want %s", cls, core.ClassIntegrity)
	}
	if r := client.Stats().TeardownReason; !strings.HasPrefix(r, "integrity") {
		t.Fatalf("teardown reason %q, want an integrity classification", r)
	}
	server.Close()
	waitGoroutines(t, base)
}

func TestProxySigForgedEvidence(t *testing.T) {
	e := newEnv(t)
	base := goleak.Base()
	// The middlebox corrupts its evidence signature — indistinguishable
	// from evidence forged by a party without the certificate key.
	mb := e.middlebox(t, "mb.example", core.ClientSide, proxySigOpt, func(cfg *core.MiddleboxConfig) {
		cfg.AccountabilityFaults = &core.AccountabilityFaults{
			MutateEvidence: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				b[len(b)-1] ^= 0x01 // corrupt the trailing signature byte
				return b
			},
		}
	})
	client, server := runSession(t, proxySigClient(e), e.serverConfig(), mb)
	exchange(t, client, server, "data", "ok")

	err := client.Close()
	if err == nil {
		t.Fatal("Close accepted evidence with a forged signature")
	}
	var ace *core.AccountabilityError
	if !errors.As(err, &ace) {
		t.Fatalf("err = %v (%T), want *AccountabilityError", err, err)
	}
	if cls := core.ClassifyError(err); cls != core.ClassIntegrity {
		t.Fatalf("forged evidence classified as %s, want %s", cls, core.ClassIntegrity)
	}
	server.Close()
	waitGoroutines(t, base)
}

// TestAccountabilityMismatch covers both directions of the negotiation
// mismatch on both middlebox sides: the refused endpoint fails its
// establishment with the middlebox's accountability_mismatch alert.
func TestAccountabilityMismatch(t *testing.T) {
	cases := []struct {
		name     string
		side     core.Mode
		mbProxy  bool // middlebox configured for proxysig
		endProxy bool // endpoint negotiates proxysig
	}{
		{"client-side/attest-mb-proxysig-client", core.ClientSide, false, true},
		{"client-side/proxysig-mb-attest-client", core.ClientSide, true, false},
		{"server-side/attest-mb-proxysig-server", core.ServerSide, false, true},
		{"server-side/proxysig-mb-attest-server", core.ServerSide, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			base := goleak.Base()
			var opts []func(*core.MiddleboxConfig)
			if tc.mbProxy {
				opts = append(opts, proxySigOpt)
			}
			mb := e.middlebox(t, "mb.example", tc.side, opts...)
			ccfg := e.clientConfig()
			scfg := e.serverConfig()
			if tc.endProxy {
				if tc.side == core.ClientSide {
					ccfg.Accountability = core.AccountProxySig
				} else {
					scfg.Accountability = core.AccountProxySig
				}
			}
			clientEnd, serverEnd := buildChain(t, mb)
			type res struct {
				sess *core.Session
				err  error
			}
			cch := make(chan res, 1)
			sch := make(chan res, 1)
			go func() {
				s, err := core.Dial(clientEnd, ccfg)
				cch <- res{s, err}
			}()
			go func() {
				s, err := core.Accept(serverEnd, scfg)
				sch <- res{s, err}
			}()
			cr, sr := <-cch, <-sch

			// The endpoint on the middlebox's side is the one refused.
			refused := cr.err
			if tc.side == core.ServerSide {
				refused = sr.err
			}
			if refused == nil {
				t.Fatal("mismatched accountability modes established a session")
			}
			if cls := core.ClassifyError(refused); cls != core.ClassRemoteAlert {
				t.Fatalf("mismatch classified as %s (err: %v), want %s", cls, refused, core.ClassRemoteAlert)
			}
			var ae *tls12.AlertError
			if !errors.As(refused, &ae) || ae.Description != tls12.AlertAccountabilityMismatch {
				t.Fatalf("err = %v, want a remote accountability_mismatch alert", refused)
			}
			if cr.sess != nil {
				cr.sess.Close()
			}
			if sr.sess != nil {
				sr.sess.Close()
			}
			clientEnd.Close()
			serverEnd.Close()
			waitGoroutines(t, base)
		})
	}
}

func TestProxySigConfigConflicts(t *testing.T) {
	e := newEnv(t)
	clientEnd, serverEnd := buildChain(t)
	defer clientEnd.Close()
	defer serverEnd.Close()

	ccfg := proxySigClient(e)
	ccfg.RequireMiddleboxAttestation = true
	if _, err := core.Dial(clientEnd, ccfg); err == nil || !strings.Contains(err.Error(), "RequireMiddleboxAttestation") {
		t.Fatalf("proxysig + RequireMiddleboxAttestation: err = %v, want a config error", err)
	}

	ccfg = proxySigClient(e)
	ccfg.NeighborKeys = true
	if _, err := core.Dial(clientEnd, ccfg); err == nil || !strings.Contains(err.Error(), "neighbor") {
		t.Fatalf("proxysig + NeighborKeys: err = %v, want a config error", err)
	}

	scfg := proxySigServer(e)
	scfg.RequireMiddleboxAttestation = true
	if _, err := core.Accept(serverEnd, scfg); err == nil || !strings.Contains(err.Error(), "RequireMiddleboxAttestation") {
		t.Fatalf("server proxysig + RequireMiddleboxAttestation: err = %v, want a config error", err)
	}
}

func TestParseAccountability(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want core.Accountability
	}{{"attest", core.AccountAttest}, {"proxysig", core.AccountProxySig}} {
		got, err := core.ParseAccountability(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAccountability(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round trip = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := core.ParseAccountability("enclave"); err == nil {
		t.Fatal("ParseAccountability accepted an unknown mode")
	}
}

// TestProxySigChainResumption: a chain ticket minted under proxysig
// carries the middlebox's certificate key, so a resumed hop — which
// presents no certificates — can still be delegated to and audited.
func TestProxySigChainResumption(t *testing.T) {
	e := newEnv(t)
	stek, err := hsfast.NewSTEK(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb := e.middlebox(t, "mb.example", core.ClientSide, proxySigOpt, func(cfg *core.MiddleboxConfig) {
		cfg.TicketKeys = stek
	})
	scfg := e.serverConfig()
	scfg.TLS.EnableTickets = true
	scfg.TLS.TicketKeys = newSTEK(t)

	var ct *core.ChainTicket
	ccfg := proxySigClient(e)
	ccfg.OnNewChainTicket = func(c *core.ChainTicket) { ct = c }
	client, server := runSession(t, ccfg, scfg, mb)
	exchange(t, client, server, "full proxysig chain", "ok")
	if err := client.Close(); err != nil {
		t.Fatalf("full-chain close: %v", err)
	}
	server.Close()
	if ct == nil || len(ct.Hops) != 1 {
		t.Fatalf("no chain ticket collected: %+v", ct)
	}
	if len(ct.Hops[0].LeafPub) == 0 {
		t.Fatal("proxysig chain ticket lacks the middlebox leaf key")
	}

	ccfg = proxySigClient(e)
	ccfg.ChainTicket = ct
	client, server = runSession(t, ccfg, scfg, mb)
	st := client.Stats()
	if st.ResumedPrimary != 1 || st.ResumedHops != 1 {
		t.Fatalf("client stats = %+v, want primary and hop both resumed", st)
	}
	if st.ProxySigSessions != 1 {
		t.Fatalf("resumed session stats = %+v, want proxysig", st)
	}
	exchange(t, client, server, "resumed proxysig chain", "ok")
	// The resumed hop's delegation was addressed via the ticket's
	// cached leaf key; evidence settlement must still verify.
	if err := client.Close(); err != nil {
		t.Fatalf("resumed-chain close (evidence settlement): %v", err)
	}
	server.Close()
	if got := mb.Stats().EvidenceSigned; got != 2 {
		t.Fatalf("EvidenceSigned = %d, want 2 (full + resumed)", got)
	}
}

// TestAttestResumptionStillWorks pins the other half of the regression
// requirement: chain resumption under the default attestation mode is
// untouched by the refactor (the full pin lives in chainresume_test.go;
// this guards the mode-dispatch seam specifically).
func TestAttestResumptionStillWorks(t *testing.T) {
	e := newEnv(t)
	stek, err := hsfast.NewSTEK(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb := e.middlebox(t, "mb.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.TicketKeys = stek
	})
	scfg := e.serverConfig()
	scfg.TLS.EnableTickets = true
	scfg.TLS.TicketKeys = newSTEK(t)

	var ct *core.ChainTicket
	ccfg := e.clientConfig()
	ccfg.OnNewChainTicket = func(c *core.ChainTicket) { ct = c }
	client, server := runSession(t, ccfg, scfg, mb)
	client.Close()
	server.Close()
	if ct == nil || len(ct.Hops) != 1 {
		t.Fatalf("no chain ticket collected: %+v", ct)
	}

	ccfg = e.clientConfig()
	ccfg.ChainTicket = ct
	client, server = runSession(t, ccfg, scfg, mb)
	defer client.Close()
	defer server.Close()
	st := client.Stats()
	if st.ResumedPrimary != 1 || st.ResumedHops != 1 || st.AttestSessions != 1 {
		t.Fatalf("client stats = %+v, want an attest-mode resumed chain", st)
	}
	exchange(t, client, server, "attest resumed", "ok")
}
