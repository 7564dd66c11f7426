package tls12

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestMiddleboxSupportHopTicketsRoundTrip(t *testing.T) {
	ms := &MiddleboxSupport{
		Middleboxes:  []string{"mb1.example:8444"},
		NeighborKeys: true,
		HopTickets: []HopTicket{
			{Name: "mb1", Ticket: []byte{1, 2, 3}},
			{Name: "mb2", Ticket: []byte{4}},
		},
	}
	got, err := parseMiddleboxSupport(ms.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.HopTickets) != 2 ||
		got.HopTickets[0].Name != "mb1" || !bytes.Equal(got.HopTickets[0].Ticket, []byte{1, 2, 3}) ||
		got.HopTickets[1].Name != "mb2" || !bytes.Equal(got.HopTickets[1].Ticket, []byte{4}) {
		t.Fatalf("hop tickets corrupted: %+v", got.HopTickets)
	}
	if !got.NeighborKeys {
		t.Fatal("flags octet lost")
	}
	if got.HopTicket("mb2") == nil || got.HopTicket("nope") != nil {
		t.Fatal("HopTicket lookup wrong")
	}

	// Backward compatibility: the pre-hop-ticket format (flags octet
	// last) and the Appendix A original (no flags octet) still parse.
	plain := &MiddleboxSupport{Middleboxes: []string{"a"}}
	raw := plain.marshal()
	if _, err := parseMiddleboxSupport(raw); err != nil {
		t.Fatalf("flags-only format rejected: %v", err)
	}
	if _, err := parseMiddleboxSupport(raw[:len(raw)-1]); err != nil {
		t.Fatalf("Appendix A format rejected: %v", err)
	}
}

func TestServerHelloResumedHopRoundTrip(t *testing.T) {
	sh := &ServerHello{
		CipherSuite:    TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		TicketExpected: true,
		ResumedHop:     "mb1",
	}
	_, body, err := splitHandshake(sh.marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseServerHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResumedHop != "mb1" || !got.TicketExpected {
		t.Fatalf("server hello corrupted: %+v", got)
	}

	// Absent when not resuming a hop.
	sh.ResumedHop = ""
	_, body, _ = splitHandshake(sh.marshal())
	if got, _ := parseServerHello(body); got.ResumedHop != "" {
		t.Fatal("phantom resumed hop")
	}
}

// fakeSTEK is a fixed TicketKeySource for grace-window tests.
type fakeSTEK struct {
	seal [32]byte
	open [][32]byte
}

func (f *fakeSTEK) SealKey() [32]byte    { return f.seal }
func (f *fakeSTEK) OpenKeys() [][32]byte { return f.open }

// TestTicketKeySourceGrace pins the multi-key open contract: a ticket
// sealed under an old STEK generation opens while that key is in the
// source's open set (grace window) and silently fails once retired.
func TestTicketKeySourceGrace(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var genA, genB [32]byte
	genA[0], genB[0] = 0xA, 0xB

	clk := clock.NewManual(now)
	sealer := &Config{EnableTickets: true, Clock: clk,
		TicketKeys: &fakeSTEK{seal: genA, open: [][32]byte{genA}}}
	state := &sessionState{suite: TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, master: make([]byte, 48), createdAt: uint64(now.Unix())}
	ticket, err := sealTicket(ticketSealer(sealer.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}

	grace := &Config{EnableTickets: true, Clock: clk,
		TicketKeys: &fakeSTEK{seal: genB, open: [][32]byte{genB, genA}}}
	if openTicket(grace, ticket) == nil {
		t.Fatal("ticket refused during the grace window")
	}

	retired := &Config{EnableTickets: true, Clock: clk,
		TicketKeys: &fakeSTEK{seal: genB, open: [][32]byte{genB}}}
	if openTicket(retired, ticket) != nil {
		t.Fatal("ticket accepted after its key generation was retired")
	}
}
