package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
	"repro/internal/tls12"
	"repro/internal/transport/tcpx"
)

// TestFlightWrites pins how many transport writes one chain handshake
// costs at each of its four connection ends (DESIGN.md §10, §12), on
// TestResumedSessionFixedCost's fixture: attest, one client-side enclave
// middlebox, over netsim and over loopback TCP. An endpoint's mux is
// corked while it establishes: the flights its goroutines write leave
// together when one of them waits on the peer, so a resumed client
// writes its hello and then one write carrying its secondary and primary
// Finished flights and the key material. The middlebox holds its own
// first flight and sends it in front of the forwarded run that carries
// the primary ServerHello, in one write. Resumed counts are exact. A
// full handshake's are bounds: which corked flights share a write
// depends on which goroutine waits first, and a middlebox forwards each
// run of records one read returned in one write.
func TestFlightWrites(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ccfg := f.clientConfig(func(c *core.ChainTicket) { ct = c })

	for _, tr := range []struct {
		name string // the cell's prefix: netsim's cells keep their plain names
		pipe func(t *testing.T) (net.Conn, net.Conn)
	}{
		{"", func(*testing.T) (net.Conn, net.Conn) { return netsim.Pipe() }},
		{"tcp/", tcpPipe},
	} {
		for _, tc := range []struct {
			name    string
			resumed bool
			// Client: the primary ClientHello, then the corked rest. Full,
			// the primary and secondary [CKE, CCS, Finished] flights
			// each leave when their goroutine waits for the reply, maybe
			// together, and the key material at the end of key
			// distribution, maybe with the last of them: 2 to 4.
			// Resumed, [secondary CCS, Finished] [primary CCS, Finished]
			// [key material] are one write: 2.
			clientMin, clientMax int64
			// Origin: [ServerHello, Certificate] (pushed through the
			// cork, ahead of the signature), [ServerKeyExchange,
			// ServerHelloDone], then [NewSessionTicket, CCS, Finished];
			// resumed, [ServerHello, NewSessionTicket, CCS, Finished].
			origin int64
			// The middlebox's own secondary flights toward the client:
			// [ServerHello, Certificate], [ServerKeyExchange,
			// SGXAttestation, ServerHelloDone] and [NewSessionTicket, CCS,
			// Finished]; resumed, one flight. The first shares its write
			// with the origin's ServerHello.
			mbOwn int64
		}{
			{name: "full", clientMin: 2, clientMax: 4, origin: 3, mbOwn: 3},
			{name: "resumed", resumed: true, clientMin: 2, clientMax: 2, origin: 1, mbOwn: 1},
		} {
			t.Run(tr.name+tc.name, func(t *testing.T) {
				ccfg.ChainTicket = nil
				if tc.resumed {
					ccfg.ChainTicket = ct
				}
				left, right := tr.pipe(t)
				upL, upR := tr.pipe(t)
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
				if cw < tc.clientMin || cw > tc.clientMax {
					t.Errorf("client wrote %d times, want %d to %d", cw, tc.clientMin, tc.clientMax)
				}
				if ow != tc.origin {
					t.Errorf("origin wrote %d times, want %d: one write a flight", ow, tc.origin)
				}
				// The first write toward the client carries the middlebox's
				// own flight and the primary ServerHello behind it.
				if types := recordTypes(mbDown.firstWrite()); len(types) < 2 ||
					types[0] != tls12.TypeEncapsulated || !slices.Contains(types, tls12.TypeHandshake) {
					t.Errorf("middlebox's first write toward the client carries %v, want its flight then the ServerHello", types)
				}
				if max := tc.mbOwn + tc.origin - 1; dw > max {
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
}

// recordTypes lists the content types of the whole records in b.
func recordTypes(b []byte) []tls12.ContentType {
	var types []tls12.ContentType
	for len(b) >= tls12.RecordHeaderLen {
		n := tls12.RecordHeaderLen + int(binary.BigEndian.Uint16(b[3:5]))
		if n > len(b) {
			break
		}
		types = append(types, tls12.ContentType(b[0]))
		b = b[n:]
	}
	return types
}

// tcpPipe is netsim.Pipe over loopback TCP.
func tcpPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	tr := tcpx.Default()
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := tr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("loopback accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
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

// TestCorkProgress runs chain handshakes with the endpoints' muxes
// corked at one, two and four cores: full and resumed sessions must
// complete (a flight a peer waits on, held while its writer waits too,
// would wedge one), and a handshake whose peer never answers must still
// fail at its phase deadline, leaking no goroutine.
func TestCorkProgress(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ccfg := f.clientConfig(func(c *core.ChainTicket) { ct = c })
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 10; i++ {
				for _, resumed := range []bool{false, true} {
					ccfg.ChainTicket = nil
					if resumed {
						ccfg.ChainTicket = ct
					}
					cs, ss := runSession(t, ccfg, f.scfg, f.mb)
					if got := cs.Stats().ResumedPrimary == 1; got != resumed {
						t.Fatalf("resumed = %v, want %v", got, resumed)
					}
					exchange(t, cs, ss, "ping", "pong")
					cs.Close()
					ss.Close()
				}
			}

			base := goleak.Base()
			clk := clock.NewManual(time.Now())
			own, silent := netsim.NewLink(netsim.LinkConfig{Clock: clk})
			done := make(chan error, 1)
			go func() {
				_, err := core.Dial(own, ccfg)
				done <- err
			}()
			clk.AwaitTimers(1)
			clk.Advance(core.DefaultHandshakeTimeout)
			var hte *core.HandshakeTimeoutError
			if err := <-done; !errors.As(err, &hte) || hte.Phase != core.PhasePrimaryHandshake {
				t.Fatalf("Dial to a silent peer = %v, want a primary-handshake timeout", err)
			}
			silent.Close()
			goleak.Wait(t, base)
		})
	}
}
