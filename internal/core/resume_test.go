package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hsfast"
	"repro/internal/tls12"
)

// newSTEK returns a ticket key source that never rotates.
func newSTEK(t *testing.T) *hsfast.STEK {
	t.Helper()
	stek, err := hsfast.NewSTEK(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stek
}

// TestSessionResumptionWithMiddlebox reproduces §3.5 "Session
// Resumption": the primary handshake becomes an abbreviated
// ticket-resumption handshake while the middlebox still joins via
// discovery and receives fresh key material.
func TestSessionResumptionWithMiddlebox(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)

	scfg := e.serverConfig()
	scfg.TLS.EnableTickets = true
	scfg.TLS.TicketKeys = newSTEK(t)

	var ticket *tls12.SessionTicket
	ccfg := e.clientConfig()
	ccfg.TLS.EnableTickets = true
	ccfg.TLS.OnNewTicket = func(tk *tls12.SessionTicket) { ticket = tk }

	// Full handshake: obtain a ticket through the middlebox.
	client, server := runSession(t, ccfg, scfg, mb)
	exchange(t, client, server, "full handshake data", "ok-full")
	client.Close()
	server.Close()
	if ticket == nil {
		t.Fatal("no session ticket issued through the middlebox path")
	}

	// Abbreviated handshake: the primary session resumes; the
	// middlebox joins again and gets fresh per-hop keys.
	ccfg2 := e.clientConfig()
	ccfg2.TLS.EnableTickets = true
	ccfg2.TLS.SessionTicket = ticket
	client, server = runSession(t, ccfg2, scfg, mb)
	defer client.Close()
	defer server.Close()

	if !client.ConnectionState().Resumed {
		t.Fatal("primary session was not resumed")
	}
	if got := client.Middleboxes(); len(got) != 1 || got[0].Name != "proxy.example" {
		t.Fatalf("middlebox did not rejoin the resumed session: %+v", got)
	}
	exchange(t, client, server, "resumed session data", "ok-resumed")
}

// TestResumptionWithServerSideMiddlebox covers the abbreviated
// handshake on the announcement path.
func TestResumptionWithServerSideMiddlebox(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn.example", core.ServerSide)

	scfg := e.serverConfig()
	scfg.TLS.EnableTickets = true
	scfg.TLS.TicketKeys = newSTEK(t)

	var ticket *tls12.SessionTicket
	ccfg := e.clientConfig()
	ccfg.TLS.EnableTickets = true
	ccfg.TLS.OnNewTicket = func(tk *tls12.SessionTicket) { ticket = tk }

	client, server := runSession(t, ccfg, scfg, mb)
	exchange(t, client, server, "first pass", "ok")
	client.Close()
	server.Close()
	if ticket == nil {
		t.Fatal("no ticket issued")
	}

	ccfg2 := e.clientConfig()
	ccfg2.TLS.EnableTickets = true
	ccfg2.TLS.SessionTicket = ticket
	client, server = runSession(t, ccfg2, scfg, mb)
	defer client.Close()
	defer server.Close()
	if !server.ConnectionState().Resumed {
		t.Fatal("server did not resume")
	}
	if got := server.Middleboxes(); len(got) != 1 {
		t.Fatalf("server-side middlebox missing from resumed session: %+v", got)
	}
	exchange(t, client, server, "resumed pass", "ok2")
}
