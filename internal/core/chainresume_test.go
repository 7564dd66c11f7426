package core_test

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
)

// chainFixture bundles the attested-middlebox-with-STEK setup the
// chain-resumption tests share: a server that issues primary tickets,
// an enclave middlebox that issues hop tickets, and a client that
// requires attestation and collects chain tickets. The middlebox's
// STEK rotates hourly on clk.
type chainFixture struct {
	e    *env
	encl *enclave.Enclave
	clk  *clock.Manual
	mb   *core.Middlebox
	scfg *core.ServerConfig
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	e := newEnv(t)
	image := enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0"}
	encl := e.Platform.CreateEnclave(image)
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	stek, err := hsfast.NewSTEK(time.Hour, clk)
	if err != nil {
		t.Fatal(err)
	}
	mb := e.middlebox(t, "sgx-proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.Enclave = encl
		cfg.TicketKeys = stek
	})
	scfg := e.serverConfig()
	scfg.TLS.EnableTickets = true
	scfg.TLS.TicketKeys = newSTEK(t)
	return &chainFixture{e: e, encl: encl, clk: clk, mb: mb, scfg: scfg}
}

// clientConfig builds a chain-collecting client config; onTicket
// receives each assembled chain ticket.
func (f *chainFixture) clientConfig(onTicket func(*core.ChainTicket)) *core.ClientConfig {
	ccfg := f.e.clientConfig()
	ccfg.RequireMiddleboxAttestation = true
	ccfg.MiddleboxVerifier = f.e.Verifier()
	ccfg.OnNewChainTicket = onTicket
	return ccfg
}

// establish runs one full session and returns the chain ticket it
// issued.
func (f *chainFixture) establish(t *testing.T) *core.ChainTicket {
	t.Helper()
	var ct *core.ChainTicket
	client, server := runSession(t, f.clientConfig(func(c *core.ChainTicket) { ct = c }), f.scfg, f.mb)
	exchange(t, client, server, "full chain", "ok")
	client.Close()
	server.Close()
	if ct == nil || ct.Primary == nil {
		t.Fatalf("no chain ticket collected: %+v", ct)
	}
	if len(ct.Hops) != 1 || ct.Hops[0].Name != "sgx-proxy.example" || !ct.Hops[0].Attested {
		t.Fatalf("chain ticket hops = %+v, want one attested sgx-proxy.example hop", ct.Hops)
	}
	return ct
}

// TestChainTicketResumption is the tentpole's end-to-end path: one
// chain ticket resumes the primary session and the middlebox hop in a
// single reconnect, the attestation requirement is satisfied from the
// ticket's cached facts, and a fresh chain ticket is reissued.
func TestChainTicketResumption(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)

	var ct2 *core.ChainTicket
	ccfg := f.clientConfig(func(c *core.ChainTicket) { ct2 = c })
	ccfg.ChainTicket = ct
	client, server := runSession(t, ccfg, f.scfg, f.mb)
	defer client.Close()
	defer server.Close()

	st := client.Stats()
	if st.ResumedPrimary != 1 || st.ResumedHops != 1 {
		t.Fatalf("client stats = %+v, want primary and hop both resumed", st)
	}
	if mbs := client.Middleboxes(); len(mbs) != 1 || mbs[0].Name != "sgx-proxy.example" || !mbs[0].Attested {
		t.Fatalf("resumed chain lost the middlebox identity: %+v", mbs)
	}
	exchange(t, client, server, "resumed chain data", "ok-resumed")
	// Checked after the exchange: the middlebox bumps SessionsResumed
	// before installing the data plane, so a completed round trip
	// orders the counter update before this read. Reading right after
	// the client handshake races with the middlebox goroutine.
	if f.mb.Stats().SessionsResumed != 1 {
		t.Fatalf("middlebox stats = %+v, want one resumed secondary", f.mb.Stats())
	}

	// The resumed session reissues the whole chain ticket, so clients
	// can keep resuming indefinitely under rotating STEKs.
	if ct2 == nil || len(ct2.Hops) != 1 {
		t.Fatalf("resumed session issued no fresh chain ticket: %+v", ct2)
	}
	if string(ct2.Hops[0].Ticket) == string(ct.Hops[0].Ticket) {
		t.Fatal("fresh hop ticket identical to the redeemed one")
	}
	if !ct2.Hops[0].Attested {
		t.Fatal("reissued chain ticket lost the attestation fact")
	}
}

// TestChainTicketStaleSTEKFallsBack rotates the middlebox STEK past
// its grace window: the hop ticket dies silently, that hop falls back
// to a full (re-attesting) handshake, and the primary still resumes.
func TestChainTicketStaleSTEKFallsBack(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)

	f.clk.Advance(2 * time.Hour)
	ccfg := f.clientConfig(nil)
	ccfg.ChainTicket = ct
	client, server := runSession(t, ccfg, f.scfg, f.mb)
	defer client.Close()
	defer server.Close()

	st := client.Stats()
	if st.ResumedPrimary != 1 || st.ResumedHops != 0 {
		t.Fatalf("client stats = %+v, want resumed primary + full hop handshake", st)
	}
	if mbs := client.Middleboxes(); len(mbs) != 1 || !mbs[0].Attested || len(mbs[0].Certificates) == 0 {
		t.Fatalf("full-handshake fallback skipped verification: %+v", mbs)
	}
	exchange(t, client, server, "post-rotation", "ok")
}

// TestChainTicketCorruptedHopTicketFallsBack flips a hop-ticket byte:
// the middlebox must refuse it silently and run the full handshake.
func TestChainTicketCorruptedHopTicketFallsBack(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ct.Hops[0].Ticket[len(ct.Hops[0].Ticket)/2] ^= 0x40

	ccfg := f.clientConfig(nil)
	ccfg.ChainTicket = ct
	client, server := runSession(t, ccfg, f.scfg, f.mb)
	defer client.Close()
	defer server.Close()
	if st := client.Stats(); st.ResumedPrimary != 1 || st.ResumedHops != 0 {
		t.Fatalf("client stats = %+v, want corrupted hop ticket to fall back", st)
	}
	exchange(t, client, server, "corrupted hop ticket", "ok")
}

// TestChainTicketCorruptedPrimaryFallsBack is the mirror image: the
// primary ticket is damaged, the hop one is not. The hops resume
// independently of the primary's fallback.
func TestChainTicketCorruptedPrimaryFallsBack(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ct.Primary.Ticket[0] ^= 0x01

	ccfg := f.clientConfig(nil)
	ccfg.ChainTicket = ct
	client, server := runSession(t, ccfg, f.scfg, f.mb)
	defer client.Close()
	defer server.Close()
	if st := client.Stats(); st.ResumedPrimary != 0 || st.ResumedHops != 1 {
		t.Fatalf("client stats = %+v, want full primary + resumed hop", st)
	}
	exchange(t, client, server, "corrupted primary ticket", "ok")
}

// TestChainResumeFaultMatrix drives injected transport faults through
// resuming handshakes: every fault surfaces as a classified transient
// or fatal error (or the resumption silently degrades but completes) —
// never a hang — and no relay goroutine outlives the attempt.
func TestChainResumeFaultMatrix(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)

	kinds := []netsim.FaultKind{netsim.FaultReset, netsim.FaultDrop, netsim.FaultCorrupt}
	allowed := map[netsim.FaultKind][]core.ErrorClass{
		netsim.FaultReset: {core.ClassReset, core.ClassTimeout, core.ClassCleanClose},
		netsim.FaultDrop:  {core.ClassReset, core.ClassTimeout, core.ClassCleanClose},
		netsim.FaultCorrupt: {
			core.ClassIntegrity, core.ClassProtocol, core.ClassRemoteAlert,
			core.ClassTimeout, core.ClassReset, core.ClassCleanClose,
		},
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			base := goleak.Base()
			// Offset 60 lands inside the resuming ClientHello: the hop
			// dies mid-resume, before any subchannel settles.
			spec := netsim.FaultSpec{Kind: kind, Offset: 60, Seed: 11, Dir: netsim.DirAToB}
			clientEnd, serverEnd := buildFaultChain(t, spec, f.mb)

			ccfg := f.clientConfig(nil)
			ccfg.ChainTicket = ct
			ccfg.HandshakeTimeout = 1500 * time.Millisecond
			scfg := f.scfg
			scfg.HandshakeTimeout = 1500 * time.Millisecond

			srvCh := make(chan *core.Session, 1)
			go func() {
				s, _ := core.Accept(serverEnd, scfg)
				srvCh <- s
			}()
			start := time.Now()
			sess, err := core.Dial(clientEnd, ccfg)
			if elapsed := time.Since(start); elapsed > 8*time.Second {
				t.Fatalf("mid-resume fault took %v to settle", elapsed)
			}
			if err == nil {
				// Corruption inside an extension can degrade rather than
				// kill: the session must still be usable.
				sess.Close()
			} else {
				cls := core.ClassifyError(err)
				ok := false
				for _, c := range allowed[kind] {
					ok = ok || c == cls
				}
				if !ok {
					t.Fatalf("mid-resume %s fault: class %s (err %v) not allowed", kind, cls, err)
				}
			}
			clientEnd.Close()
			serverEnd.Close()
			select {
			case srv := <-srvCh:
				if srv != nil {
					srv.Close()
				}
			case <-time.After(8 * time.Second):
				t.Fatal("server Accept never returned after mid-resume fault")
			}
			waitGoroutines(t, base)
		})
	}
}
