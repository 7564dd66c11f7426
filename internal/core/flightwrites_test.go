package core_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

// TestFlightWrites pins how many transport writes one chain handshake
// costs at each of its four connection ends (DESIGN.md §10, §12), on
// TestResumedSessionFixedCost's fixture: attest, one client-side enclave
// middlebox, netsim. An endpoint writes once a flight — the tls12 engine
// flushes a flight when it waits for the peer's, and the full server
// flight once more after its Certificate — so its counts are exact. A
// middlebox forwards each run of records one read returned in one write,
// so its counts depend on how the peer's writes were read, and are
// bounded: its own flights, plus at most one write per write of the
// endpoint it forwards from.
func TestFlightWrites(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ccfg := f.clientConfig(func(c *core.ChainTicket) { ct = c })

	for _, tc := range []struct {
		name    string
		resumed bool
		// Client: the primary ClientHello, then the secondary
		// [CKE,] CCS, Finished (resumed: CCS, Finished), the primary
		// flight the same, and the key material — each a write of its
		// own goroutine.
		client int64
		// Origin: [ServerHello, Certificate] and [ServerKeyExchange,
		// ServerHelloDone], then [NewSessionTicket, CCS, Finished];
		// resumed, [ServerHello, NewSessionTicket, CCS, Finished].
		origin int64
		// The middlebox's own secondary flights toward the client:
		// [ServerHello, Certificate], [ServerKeyExchange,
		// SGXAttestation, ServerHelloDone] and [NewSessionTicket, CCS,
		// Finished]; resumed, one flight.
		mbOwn int64
	}{
		{name: "full", client: 4, origin: 3, mbOwn: 3},
		{name: "resumed", resumed: true, client: 4, origin: 1, mbOwn: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ccfg.ChainTicket = nil
			if tc.resumed {
				ccfg.ChainTicket = ct
			}
			left, right := netsim.Pipe()
			upL, upR := netsim.Pipe()
			client, mbDown := &writeCounter{Conn: left}, &writeCounter{Conn: right}
			mbUp, origin := &writeCounter{Conn: upL}, &writeCounter{Conn: upR}
			host := hostedOnce{make(chan struct{}), make(chan struct{})}
			go func() {
				defer close(host.done)
				f.mb.HandleHosted(mbDown, mbUp, &host) //nolint:errcheck
			}()
			cs, ss := dialAccept(t, client, origin, ccfg, f.scfg)
			<-host.established
			if got := cs.Stats().ResumedPrimary == 1; got != tc.resumed {
				t.Fatalf("resumed = %v, want %v", got, tc.resumed)
			}
			// Establishment is synchronous at both endpoints, and the
			// middlebox forwarded each one's last flight to the other.
			cw, ow := client.writes.Load(), origin.writes.Load()
			dw, uw := mbDown.writes.Load(), mbUp.writes.Load()
			t.Logf("writes: client %d, middlebox→client %d, middlebox→origin %d, origin %d", cw, dw, uw, ow)
			if cw != tc.client {
				t.Errorf("client wrote %d times, want %d: one write a flight", cw, tc.client)
			}
			if ow != tc.origin {
				t.Errorf("origin wrote %d times, want %d: one write a flight", ow, tc.origin)
			}
			if max := tc.mbOwn + tc.origin; dw > max {
				t.Errorf("middlebox wrote %d times toward the client, want at most %d", dw, max)
			}
			// Toward the origin only the client's ClientHello and primary
			// flight pass; the secondary flight and key material are the
			// middlebox's own.
			if max := int64(2); uw > max {
				t.Errorf("middlebox wrote %d times toward the origin, want at most %d", uw, max)
			}

			exchange(t, cs, ss, "ping", "pong")
			cs.Close()
			if _, err := ss.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("server read after client close: %v, want EOF", err)
			}
			<-host.done
			ss.Close()
		})
	}
}

// TestFlightOverOneRecord sends flights larger than one record can
// carry. A certificate with a thousand SANs pushes [ServerHello,
// Certificate] past what one transport write may hold (an Encapsulated
// body, or a record layer's coalescing limit): the engine splits the
// flight at that limit, mid-message. On the middlebox's subchannel each
// part becomes an Encapsulated record; on the primary, records of the
// origin's. Either way every record the client receives fits a record
// body, and the session completes.
func TestFlightOverOneRecord(t *testing.T) {
	sans := func(name string) []string {
		names := []string{name}
		for i := 0; i < 1000; i++ {
			names = append(names, fmt.Sprintf("alt-%04d.%s", i, name))
		}
		return names
	}
	for _, tc := range []struct {
		name   string
		sub    bool // the oversized flight is the middlebox's secondary one
		origin bool // ...or the origin's primary one
	}{
		{name: "middlebox certificate", sub: true},
		{name: "origin certificate", origin: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			mb := e.middlebox(t, "big.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
				if tc.sub {
					cert, err := e.CA.Issue("big.example", sans("big.example"), nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Certificate = cert
				}
			})
			scfg := e.serverConfig()
			if tc.origin {
				cert, err := e.CA.Issue(chain.OriginName, sans(chain.OriginName), nil)
				if err != nil {
					t.Fatal(err)
				}
				scfg.TLS.Certificate = cert
			}
			clientEnd, serverEnd := buildChain(t, mb)
			snoop := &snoopConn{Conn: clientEnd}
			client, server := dialAccept(t, snoop, serverEnd, e.clientConfig(), scfg)
			exchange(t, client, server, "ping", "pong")
			client.Close()
			server.Close()

			_, s2c := snoop.snapshot()
			var subBytes, primaryBytes int
			for b := s2c; len(b) >= tls12.RecordHeaderLen; {
				n := int(binary.BigEndian.Uint16(b[3:5]))
				if n > tls12.MaxCiphertext {
					t.Fatalf("client received a %s record of %d bytes, limit %d", tls12.ContentType(b[0]), n, tls12.MaxCiphertext)
				}
				if len(b) < tls12.RecordHeaderLen+n {
					break
				}
				if tls12.ContentType(b[0]) == tls12.TypeEncapsulated {
					subBytes += n
				} else {
					primaryBytes += n
				}
				b = b[tls12.RecordHeaderLen+n:]
			}
			// The oversized flight really did outgrow one record.
			got := primaryBytes
			if tc.sub {
				got = subBytes
			}
			if got <= tls12.MaxCiphertext {
				t.Fatalf("the oversized stream carried %d bytes in all: the test certificate is too small", got)
			}
		})
	}
}
