package tls12

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
)

func ticketConfig(now time.Time) *Config {
	return &Config{EnableTickets: true, Clock: clock.NewManual(now), TicketKeys: FixedTicketKeys{0x42}}
}

func TestTicketSealOpenRoundTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := ticketConfig(now)
	state := &sessionState{
		suite:     TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		master:    bytes.Repeat([]byte{7}, 48),
		createdAt: uint64(now.Unix()),
	}
	ticket, err := sealTicket(ticketSealer(cfg.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}
	got := openTicket(cfg, ticket)
	if got == nil {
		t.Fatal("valid ticket rejected")
	}
	if got.suite != state.suite || !bytes.Equal(got.master, state.master) {
		t.Fatal("ticket state corrupted")
	}
}

func TestTicketWrongKeyRejected(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := ticketConfig(now)
	state := &sessionState{suite: TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, master: make([]byte, 48), createdAt: uint64(now.Unix())}
	ticket, err := sealTicket(ticketSealer(cfg.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}
	other := ticketConfig(now)
	other.TicketKeys = FixedTicketKeys{0x43}
	if openTicket(other, ticket) != nil {
		t.Fatal("ticket decrypted under the wrong STEK")
	}
}

func TestTicketExpiry(t *testing.T) {
	issued := time.Unix(1_700_000_000, 0)
	cfg := ticketConfig(issued)
	state := &sessionState{suite: TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, master: make([]byte, 48), createdAt: uint64(issued.Unix())}
	ticket, err := sealTicket(ticketSealer(cfg.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh: accepted.
	if openTicket(cfg, ticket) == nil {
		t.Fatal("fresh ticket rejected")
	}
	// Past the lifetime: silently ignored (full handshake fallback).
	late := ticketConfig(issued.Add(ticketLifetime + time.Hour))
	if openTicket(late, ticket) != nil {
		t.Fatal("expired ticket accepted")
	}
	// From the future (clock skew / forged timestamp): ignored.
	early := ticketConfig(issued.Add(-time.Hour))
	if openTicket(early, ticket) != nil {
		t.Fatal("future-dated ticket accepted")
	}
}

func TestTicketTamperRejected(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := ticketConfig(now)
	state := &sessionState{suite: TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, master: make([]byte, 48), createdAt: uint64(now.Unix())}
	ticket, err := sealTicket(ticketSealer(cfg.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ticket); i += 5 {
		tampered := append([]byte(nil), ticket...)
		tampered[i] ^= 0x80
		if openTicket(cfg, tampered) != nil {
			t.Fatalf("tampered ticket (byte %d) accepted", i)
		}
	}
	if openTicket(cfg, nil) != nil || openTicket(cfg, []byte("short")) != nil {
		t.Fatal("malformed ticket accepted")
	}
}

func TestTicketUnsupportedSuiteRejected(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := ticketConfig(now)
	state := &sessionState{suite: TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, master: make([]byte, 48), createdAt: uint64(now.Unix())}
	ticket, err := sealTicket(ticketSealer(cfg.TicketKeys), state)
	if err != nil {
		t.Fatal(err)
	}
	restricted := ticketConfig(now)
	restricted.CipherSuites = []uint16{TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256}
	if openTicket(restricted, ticket) != nil {
		t.Fatal("ticket for a now-disabled suite accepted")
	}
}

func TestSessionStateRoundTrip(t *testing.T) {
	s := &sessionState{suite: 0xC02C, master: bytes.Repeat([]byte{9}, 48), createdAt: 12345}
	got, err := parseSessionState(s.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.suite != s.suite || !bytes.Equal(got.master, s.master) || got.createdAt != s.createdAt {
		t.Fatal("session state corrupted")
	}
	if _, err := parseSessionState([]byte{1, 2, 3}); err == nil {
		t.Fatal("malformed state parsed")
	}
}
