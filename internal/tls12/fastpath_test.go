package tls12_test

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hsfast"
	"repro/internal/tls12"
)

// The hsfast implementations must satisfy the tls12 fast-path hooks.
var (
	_ tls12.TicketKeySource = (*hsfast.STEK)(nil)
	_ tls12.KeyShareSource  = (*hsfast.KeySharePool)(nil)
	_ tls12.ChainCache      = (*hsfast.VerifyCache)(nil)
)

// hopSetup runs a full handshake against a named-hop server with an
// hourly STEK on a manual clock and returns both configs (sharing one
// CA), the clock and the issued ticket.
func hopSetup(t *testing.T) (*tls12.Config, *tls12.Config, *clock.Manual, *tls12.SessionTicket) {
	t.Helper()
	_, clientCfg, serverCfg := testPKI(t, "mb1")
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	stek, err := hsfast.NewSTEK(time.Hour, clk)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = stek
	serverCfg.HopTicketName = "mb1"

	var issued *tls12.SessionTicket
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(st *tls12.SessionTicket) { issued = st }
	_, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cErr, sErr)
	}
	if issued == nil {
		t.Fatal("no ticket issued")
	}
	return clientCfg, serverCfg, clk, issued
}

// hopResumeClient clones a client config into one that offers the hop
// ticket for "mb1" through the MiddleboxSupport extension, the way a
// chain resumption carries it inside the shared primary ClientHello.
func hopResumeClient(base *tls12.Config, ticket *tls12.SessionTicket) *tls12.Config {
	cfg := *base
	cfg.OnNewTicket = nil
	cfg.HopTickets = map[string]*tls12.SessionTicket{"mb1": ticket}
	cfg.MiddleboxSupport = &tls12.MiddleboxSupport{
		HopTickets: []tls12.HopTicket{{Name: "mb1", Ticket: ticket.Ticket}},
	}
	return &cfg
}

// TestHopTicketResumption pins the chain-resumption mechanics at the
// tls12 layer: a server configured as a named hop reads its ticket
// from the MiddleboxSupport extension, resumes, and names the hop in
// its ServerHello; the client maps that name back to its hop ticket.
func TestHopTicketResumption(t *testing.T) {
	baseCfg, serverCfg, _, issued := hopSetup(t)

	var reissued *tls12.SessionTicket
	clientCfg := hopResumeClient(baseCfg, issued)
	clientCfg.OnNewTicket = func(st *tls12.SessionTicket) { reissued = st }
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("resumed handshake: client=%v server=%v", cErr, sErr)
	}
	cs, ss := client.ConnectionState(), server.ConnectionState()
	if !cs.Resumed || cs.ResumedHop != "mb1" {
		t.Fatalf("client state not hop-resumed: %+v", cs)
	}
	if !ss.Resumed || ss.ResumedHop != "mb1" {
		t.Fatalf("server state not hop-resumed: %+v", ss)
	}
	if len(cs.PeerCertificates) != 0 {
		t.Fatal("resumed handshake carried certificates")
	}
	if reissued == nil {
		t.Fatal("resumed handshake issued no fresh ticket")
	}
}

// TestHopResumptionStaleSTEKFallsBack pins the rotation contract end
// to end: after the issuing generation leaves the grace window the hop
// ticket dies quietly — the handshake completes as a full one.
func TestHopResumptionStaleSTEKFallsBack(t *testing.T) {
	baseCfg, serverCfg, clk, issued := hopSetup(t)

	// One rotation: grace window, still resumes.
	clk.Advance(time.Hour)
	client, _, cErr, sErr := runHandshake(t, hopResumeClient(baseCfg, issued), serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("grace-window handshake: client=%v server=%v", cErr, sErr)
	}
	if cs := client.ConnectionState(); !cs.Resumed {
		t.Fatalf("grace-window ticket did not resume: %+v", cs)
	}

	// Second rotation: retired. Falls back to a full handshake, never
	// an error.
	clk.Advance(time.Hour)
	client, _, cErr, sErr = runHandshake(t, hopResumeClient(baseCfg, issued), serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("post-grace handshake: client=%v server=%v", cErr, sErr)
	}
	if cs := client.ConnectionState(); cs.Resumed || cs.ResumedHop != "" {
		t.Fatalf("stale ticket resumed: %+v", cs)
	}
}

// TestHandshakeWithKeySharePool runs full handshakes with both sides
// drawing ephemeral keys from a precompute pool.
func TestHandshakeWithKeySharePool(t *testing.T) {
	pool := hsfast.NewKeySharePool(8, 1)
	defer pool.Close()
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	clientCfg.KeyShares = pool
	serverCfg.KeyShares = pool

	for i := 0; i < 3; i++ {
		client, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
		if cErr != nil || sErr != nil {
			t.Fatalf("handshake %d: client=%v server=%v", i, cErr, sErr)
		}
		if !client.ConnectionState().HandshakeComplete {
			t.Fatal("handshake incomplete")
		}
	}
	s := pool.Stats()
	if s.Hits+s.Misses != 6 {
		t.Fatalf("pool served %d keyshares, want 6 (stats %+v)", s.Hits+s.Misses, s)
	}
}

// TestHandshakeWithVerifyCache pins that repeat connections to the
// same server verify its chain once and still produce working
// sessions — and that a hostile chain is still rejected when offered
// under a different cache key.
func TestHandshakeWithVerifyCache(t *testing.T) {
	cache := hsfast.NewVerifyCache(16, time.Hour, nil)
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	clientCfg.VerifyCache = cache

	for i := 0; i < 3; i++ {
		_, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
		if cErr != nil || sErr != nil {
			t.Fatalf("handshake %d: client=%v server=%v", i, cErr, sErr)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss + 2 hits", s)
	}

	// A different server (different chain bytes) must not hit the
	// cached verdict — and must still fail verification against this
	// client's roots.
	_, _, otherServer := testPKI(t, "example.com")
	_, _, cErr, _ := runHandshake(t, clientCfg, otherServer)
	if cErr == nil {
		t.Fatal("chain from an untrusted CA accepted with cache enabled")
	}
}
