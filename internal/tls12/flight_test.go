package tls12_test

import (
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/enclave"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

// flightConn records what each transport Write carried: the records it
// framed, named by handshake message while they are plaintext.
type flightConn struct {
	net.Conn
	mu     sync.Mutex
	writes []string
	sealed bool // a ChangeCipherSpec went out: later records are opaque
}

func (f *flightConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	var names []string
	for b := p; len(b) >= tls12.RecordHeaderLen; {
		typ, n, err := tls12.ParseRecordHeader(b)
		if err != nil || len(b) < tls12.RecordHeaderLen+n {
			names = append(names, "?")
			break
		}
		body := b[tls12.RecordHeaderLen : tls12.RecordHeaderLen+n]
		switch {
		case typ == tls12.TypeHandshake && f.sealed:
			names = append(names, "sealed")
		case typ == tls12.TypeHandshake && len(body) > 0:
			names = append(names, tls12.HandshakeType(body[0]).String())
		default:
			names = append(names, typ.String())
		}
		if typ == tls12.TypeChangeCipherSpec {
			f.sealed = true
		}
		b = b[tls12.RecordHeaderLen+n:]
	}
	f.writes = append(f.writes, strings.Join(names, " "))
	f.mu.Unlock()
	return f.Conn.Write(p)
}

func (f *flightConn) flights() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.writes...)
}

// TestFlightIsOneWrite pins the engine's write boundaries: a handshake
// flight is buffered and leaves in one transport Write when the engine
// waits for the peer or the handshake returns. The full server flight
// is the one exception, flushed once more after its Certificate so the
// peer verifies the chain while the server signs (and quotes).
func TestFlightIsOneWrite(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = newSTEK(t)
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { clientCfg.SessionTicket = tk }

	fx := newAttestFixture(t)
	attest := func() {
		serverCfg.Quoter = fx.quoter()
		clientCfg.RequestAttestation = true
		clientCfg.VerifyQuote = (&enclave.Verifier{
			Authority: fx.authority.PublicKey(),
			Allowed:   []enclave.Measurement{fx.image.Measurement()},
		}).VerifyQuote
	}

	for _, tc := range []struct {
		name           string
		resumed        bool
		setup          func()
		client, server []string
	}{
		{
			name:   "full",
			client: []string{"client_hello", "client_key_exchange change_cipher_spec sealed"},
			server: []string{
				"server_hello certificate",
				"server_key_exchange server_hello_done",
				"new_session_ticket change_cipher_spec sealed",
			},
		},
		{
			name:    "resumed",
			resumed: true,
			client:  []string{"client_hello", "change_cipher_spec sealed"},
			server:  []string{"server_hello new_session_ticket change_cipher_spec sealed"},
		},
		{
			name:   "full attested",
			setup:  func() { clientCfg.SessionTicket = nil; attest() },
			client: []string{"client_hello", "client_key_exchange change_cipher_spec sealed"},
			server: []string{
				"server_hello certificate",
				"server_key_exchange sgx_attestation server_hello_done",
				"new_session_ticket change_cipher_spec sealed",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				tc.setup()
			}
			cp, sp := netsim.Pipe()
			cw, sw := &flightConn{Conn: cp}, &flightConn{Conn: sp}
			client := tls12.NewClientConn(cw, clientCfg)
			server := tls12.NewServerConn(sw, serverCfg)
			var wg sync.WaitGroup
			var cErr, sErr error
			wg.Add(2)
			go func() { defer wg.Done(); cErr = client.Handshake() }()
			go func() { defer wg.Done(); sErr = server.Handshake() }()
			wg.Wait()
			if cErr != nil || sErr != nil {
				t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
			}
			defer client.Close()
			defer server.Close()
			if got := client.ConnectionState().Resumed; got != tc.resumed {
				t.Fatalf("resumed = %v, want %v", got, tc.resumed)
			}
			checkFlights(t, "client", cw.flights(), tc.client)
			checkFlights(t, "server", sw.flights(), tc.server)
		})
	}
}

func checkFlights(t *testing.T, who string, got, want []string) {
	t.Helper()
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Errorf("%s wrote %d times:\n  %s\nwant %d:\n  %s", who, len(got),
			strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
	}
}
