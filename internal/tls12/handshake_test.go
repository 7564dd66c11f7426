package tls12_test

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/certs"
	"repro/internal/hsfast"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

// testPKI builds a CA, a server certificate, and matching configs.
func testPKI(t *testing.T, serverName string) (*certs.CA, *tls12.Config, *tls12.Config) {
	t.Helper()
	ca, err := certs.NewCA("test root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cert, err := ca.Issue(serverName, []string{serverName}, nil)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	clientCfg := &tls12.Config{RootCAs: ca.Pool(), ServerName: serverName}
	serverCfg := &tls12.Config{Certificate: cert}
	return ca, clientCfg, serverCfg
}

// newSTEK returns a ticket key source that never rotates.
func newSTEK(t *testing.T) *hsfast.STEK {
	t.Helper()
	stek, err := hsfast.NewSTEK(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stek
}

// runHandshake performs a full handshake over net.Pipe and returns both
// connections with any handshake errors.
func runHandshake(t *testing.T, clientCfg, serverCfg *tls12.Config) (*tls12.Conn, *tls12.Conn, error, error) {
	t.Helper()
	cp, sp := netsim.Pipe()
	client := tls12.NewClientConn(cp, clientCfg)
	server := tls12.NewServerConn(sp, serverCfg)
	var wg sync.WaitGroup
	var cErr, sErr error
	wg.Add(2)
	go func() { defer wg.Done(); cErr = client.Handshake() }()
	go func() { defer wg.Done(); sErr = server.Handshake() }()
	wg.Wait()
	return client, server, cErr, sErr
}

func TestFullHandshakeAndData(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()

	cs := client.ConnectionState()
	if !cs.HandshakeComplete || cs.Resumed {
		t.Fatalf("bad client state: %+v", cs)
	}
	if len(cs.PeerCertificates) == 0 || cs.PeerCertificates[0].Subject.CommonName != "example.com" {
		t.Fatalf("client did not capture peer certificates: %+v", cs.PeerCertificates)
	}

	msg := []byte("hello from client")
	done := make(chan error, 1)
	go func() {
		_, err := client.Write(msg)
		done <- err
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("server got %q, want %q", buf, msg)
	}

	reply := []byte("hello from server, a somewhat longer reply to exercise framing")
	go func() {
		_, err := server.Write(reply)
		done <- err
	}()
	buf = make([]byte, len(reply))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server write: %v", err)
	}
	if !bytes.Equal(buf, reply) {
		t.Fatalf("client got %q, want %q", buf, reply)
	}
}

// TestCloseDropsUndeliveredAppBuf: a partially consumed application
// record aliases the record layer's pooled read buffer; Close returns
// that buffer to the pool, so a Read after Close must fail cleanly
// instead of serving bytes from a buffer another connection may now
// own.
func TestCloseDropsUndeliveredAppBuf(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer server.Close()

	msg := bytes.Repeat([]byte("secret-payload! "), 8)
	done := make(chan error, 1)
	go func() {
		_, err := server.Write(msg)
		done <- err
	}()
	// Consume a prefix, leaving the rest parked in the client's appBuf
	// (which aliases the pooled read buffer).
	small := make([]byte, 10)
	if _, err := io.ReadFull(client, small); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server write: %v", err)
	}
	client.Close()
	n, err := client.Read(make([]byte, len(msg)))
	if n != 0 || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Read after Close = (%d, %v), want (0, net.ErrClosed)", n, err)
	}
}

func TestCipherSuiteNegotiation(t *testing.T) {
	for _, suite := range []uint16{
		tls12.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
	} {
		_, clientCfg, serverCfg := testPKI(t, "example.com")
		clientCfg.CipherSuites = []uint16{suite}
		client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
		if cErr != nil || sErr != nil {
			t.Fatalf("%s: handshake: client=%v server=%v", tls12.CipherSuiteName(suite), cErr, sErr)
		}
		if got := client.ConnectionState().CipherSuite; got != suite {
			t.Fatalf("negotiated 0x%04X, want 0x%04X", got, suite)
		}
		client.Close()
		server.Close()
	}
}

func TestNoCommonCipherSuite(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	clientCfg.CipherSuites = []uint16{tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384}
	serverCfg.CipherSuites = []uint16{tls12.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256}
	_, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if sErr == nil {
		t.Fatal("server accepted handshake without a common suite")
	}
	if cErr == nil {
		t.Fatal("client did not observe the failure")
	}
	if ae, ok := cErr.(*tls12.AlertError); !ok || !ae.Remote || ae.Description != tls12.AlertHandshakeFailure {
		t.Fatalf("client error = %v, want remote handshake_failure alert", cErr)
	}
}

func TestWrongHostname(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	clientCfg.ServerName = "other.com"
	_, _, cErr, _ := runHandshake(t, clientCfg, serverCfg)
	if cErr == nil {
		t.Fatal("client accepted certificate for the wrong host")
	}
}

func TestUntrustedCA(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	otherCA, err := certs.NewCA("other root")
	if err != nil {
		t.Fatal(err)
	}
	clientCfg.RootCAs = otherCA.Pool()
	_, _, cErr, _ := runHandshake(t, clientCfg, serverCfg)
	if cErr == nil {
		t.Fatal("client accepted certificate from untrusted CA")
	}
}

func TestExpiredCertificate(t *testing.T) {
	ca, err := certs.NewCA("test root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueExpired("example.com", []string{"example.com"})
	if err != nil {
		t.Fatal(err)
	}
	clientCfg := &tls12.Config{RootCAs: ca.Pool(), ServerName: "example.com"}
	serverCfg := &tls12.Config{Certificate: cert}
	_, _, cErr, _ := runHandshake(t, clientCfg, serverCfg)
	if cErr == nil {
		t.Fatal("client accepted expired certificate")
	}
}

func TestSessionResumption(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = newSTEK(t)
	var ticket *tls12.SessionTicket
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { ticket = tk }

	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("full handshake: client=%v server=%v", cErr, sErr)
	}
	client.Close()
	server.Close()
	if ticket == nil {
		t.Fatal("client did not receive a session ticket")
	}

	clientCfg.SessionTicket = ticket
	client, server, cErr, sErr = runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("abbreviated handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()
	if !client.ConnectionState().Resumed {
		t.Fatal("client session was not resumed")
	}
	if !server.ConnectionState().Resumed {
		t.Fatal("server session was not resumed")
	}

	// Resumed sessions must still carry data.
	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("resumed data"))
		done <- err
	}()
	buf := make([]byte, 12)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("server read after resumption: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestResumptionWithBogusTicketFallsBack(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = newSTEK(t)
	clientCfg.EnableTickets = true
	clientCfg.SessionTicket = &tls12.SessionTicket{
		Ticket:       []byte("not a real ticket"),
		CipherSuite:  tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		MasterSecret: make([]byte, 48),
	}
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()
	if client.ConnectionState().Resumed {
		t.Fatal("session resumed from a bogus ticket")
	}
}

// forgerKeys seals and opens under the all-zero key through the AEAD
// path, which takes its source's word for the key: what anyone holding
// that key could do.
type forgerKeys struct{ tls12.FixedTicketKeys }

func (forgerKeys) SealAEAD() cipher.AEAD {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

func (k forgerKeys) OpenAEADs() []cipher.AEAD { return []cipher.AEAD{k.SealAEAD()} }

// TestZeroTicketKeyRefused pins the ticket-key rules: a ticket sealed
// under the all-zero key, which anyone can forge, resumes nothing. A
// server whose key source offers the zero key (a wiped STEK does) neither
// opens such a ticket nor issues one under it, and a server with
// EnableTickets and no TicketKeys fails before it writes a byte.
func TestZeroTicketKeyRefused(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = forgerKeys{}
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { clientCfg.SessionTicket = tk }
	if _, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg); cErr != nil || sErr != nil {
		t.Fatalf("forging handshake: client=%v server=%v", cErr, sErr)
	}
	forged := clientCfg.SessionTicket
	if forged == nil {
		t.Fatal("no ticket forged under the zero key")
	}

	serverCfg.TicketKeys = tls12.FixedTicketKeys{} // the zero key, as a plain source
	clientCfg.SessionTicket = nil
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { clientCfg.SessionTicket = tk }
	offer := *clientCfg
	offer.SessionTicket = forged
	_, server, cErr, sErr := runHandshake(t, &offer, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("zero-key server: client=%v server=%v", cErr, sErr)
	}
	if server.ConnectionState().Resumed {
		t.Fatal("a zero-key server resumed the forged ticket")
	}
	if clientCfg.SessionTicket != nil {
		t.Fatal("a zero-key server issued a ticket")
	}

	serverCfg.TicketKeys = nil
	cp, sp := netsim.Pipe()
	wire := &flightConn{Conn: sp}
	client := tls12.NewClientConn(cp, &offer)
	srv := tls12.NewServerConn(wire, serverCfg)
	cDone := make(chan error, 1)
	go func() { cDone <- client.Handshake() }()
	sErr = srv.Handshake()
	wire.mu.Lock()
	writes := len(wire.writes)
	wire.mu.Unlock()
	sp.Close()
	<-cDone
	if sErr == nil || srv.ConnectionState().Resumed {
		t.Fatalf("server without TicketKeys: err=%v resumed=%v, want a config error", sErr, srv.ConnectionState().Resumed)
	}
	if writes != 0 {
		t.Fatalf("server wrote %d times before failing, want 0", writes)
	}
}

// TestWipedSTEKServesNothing pins what a wiped STEK leaves a server: it
// issues no ticket, and a ticket sealed before the wipe falls back to a
// full handshake.
func TestWipedSTEKServesNothing(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	stek := newSTEK(t)
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = stek
	var issued *tls12.SessionTicket
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { issued = tk }
	if _, _, cErr, sErr := runHandshake(t, clientCfg, serverCfg); cErr != nil || sErr != nil {
		t.Fatalf("issuing handshake: client=%v server=%v", cErr, sErr)
	}
	if issued == nil {
		t.Fatal("no ticket issued before the wipe")
	}

	stek.Wipe()
	before := issued
	issued = nil
	clientCfg.SessionTicket = before
	_, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake after the wipe: client=%v server=%v", cErr, sErr)
	}
	if server.ConnectionState().Resumed {
		t.Fatal("a wiped STEK resumed a ticket sealed before the wipe")
	}
	if issued != nil {
		t.Fatal("a wiped STEK issued a ticket")
	}
}

func TestExportSessionKeys(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()

	ck, err := client.ExportSessionKeys()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := server.ExportSessionKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.ClientWriteKey, sk.ClientWriteKey) || !bytes.Equal(ck.ServerWriteKey, sk.ServerWriteKey) {
		t.Fatal("endpoints exported different session keys")
	}
	if !bytes.Equal(ck.ClientWriteIV, sk.ClientWriteIV) || !bytes.Equal(ck.ServerWriteIV, sk.ServerWriteIV) {
		t.Fatal("endpoints exported different IVs")
	}
	if ck.ClientSeq != sk.ClientSeq || ck.ServerSeq != sk.ServerSeq {
		t.Fatalf("sequence mismatch: client exports (%d,%d), server (%d,%d)",
			ck.ClientSeq, ck.ServerSeq, sk.ClientSeq, sk.ServerSeq)
	}
	// Exactly one protected record (Finished) has flowed each way.
	if ck.ClientSeq != 1 || ck.ServerSeq != 1 {
		t.Fatalf("unexpected starting sequences: (%d,%d)", ck.ClientSeq, ck.ServerSeq)
	}
}

func TestLargeTransfer(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()

	// 100 KiB forces fragmentation across many records.
	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Write(payload)
		done <- err
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large transfer corrupted data")
	}
}

func TestCloseNotify(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := server.Read(buf)
		readDone <- err
	}()
	client.Close()
	if err := <-readDone; err != io.EOF {
		t.Fatalf("server read after close = %v, want io.EOF", err)
	}
	server.Close()
}

// TestOversizedHandshakeHeader: a peer announcing a 16 MiB handshake
// message before anything is authenticated is refused at the header —
// a fatal decode_error on the wire and as the local error — from both
// roles, without the connection waiting for (or buffering) the body.
func TestOversizedHandshakeHeader(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	for _, tc := range []struct {
		name string
		conn func(c *netsim.Conn) *tls12.Conn
	}{
		{"server", func(c *netsim.Conn) *tls12.Conn { return tls12.NewServerConn(c, serverCfg) }},
		{"client", func(c *netsim.Conn) *tls12.Conn { return tls12.NewClientConn(c, clientCfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, end := netsim.Pipe()
			defer peer.Close()
			defer end.Close()
			errc := make(chan error, 1)
			go func() { errc <- tc.conn(end).Handshake() }()
			header := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte{1, 0xFF, 0xFF, 0xFF}}
			if _, err := peer.Write(header.Marshal()); err != nil {
				t.Fatal(err)
			}
			var ae *tls12.AlertError
			if err := <-errc; !errors.As(err, &ae) || ae.Description != tls12.AlertDecodeError || ae.Remote {
				t.Fatalf("handshake error %v, want a local decode_error", err)
			}
			for {
				rec, err := tls12.ReadRawRecord(peer)
				if err != nil {
					t.Fatalf("no alert reached the peer: %v", err)
				}
				if rec.Type != tls12.TypeAlert {
					continue // the client's own hello
				}
				if want := []byte{byte(tls12.AlertLevelFatal), byte(tls12.AlertDecodeError)}; !bytes.Equal(rec.Payload, want) {
					t.Fatalf("alert %v, want %v", rec.Payload, want)
				}
				return
			}
		})
	}
}
