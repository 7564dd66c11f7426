package core_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/tls12"
)

// env is chain's PKI fixture under the method names the tests use.
type env struct{ *chain.PKI }

func newEnv(t *testing.T) *env {
	t.Helper()
	pki, err := chain.NewPKI()
	if err != nil {
		t.Fatal(err)
	}
	return &env{pki}
}

func (e *env) clientConfig() *core.ClientConfig { return e.ClientConfig() }
func (e *env) serverConfig() *core.ServerConfig { return e.ServerConfig() }

func (e *env) middlebox(t *testing.T, name string, mode core.Mode, opts ...func(*core.MiddleboxConfig)) *core.Middlebox {
	t.Helper()
	cfg := core.MiddleboxConfig{Name: name, Mode: mode}
	for _, o := range opts {
		o(&cfg)
	}
	mb, err := e.Middlebox(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

// buildChain wires client → middleboxes → server over in-memory pipes;
// the chain is torn down with the test.
func buildChain(t *testing.T, mboxes ...*core.Middlebox) (clientEnd, serverEnd net.Conn) {
	t.Helper()
	ch, err := chain.Wire(nil, mboxes...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ch.Close)
	return ch.Client, ch.Server
}

// runSession dials and accepts concurrently, returning both sessions.
func runSession(t *testing.T, ccfg *core.ClientConfig, scfg *core.ServerConfig, mboxes ...*core.Middlebox) (*core.Session, *core.Session) {
	t.Helper()
	clientEnd, serverEnd := buildChain(t, mboxes...)
	return dialAccept(t, clientEnd, serverEnd, ccfg, scfg)
}

// dialAccept dials and accepts concurrently over an already-built chain.
func dialAccept(t *testing.T, clientEnd, serverEnd net.Conn, ccfg *core.ClientConfig, scfg *core.ServerConfig) (*core.Session, *core.Session) {
	t.Helper()
	client, server, err := chain.Establish(clientEnd, serverEnd, ccfg, scfg)
	if err != nil {
		t.Fatalf("session setup: %v", err)
	}
	return client, server
}

// exchange verifies bidirectional application data through the session.
func exchange(t *testing.T, client, server io.ReadWriter, msg, reply string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		if _, err := client.Write([]byte(msg)); err != nil {
			done <- err
			return
		}
		buf := make([]byte, len(reply))
		if _, err := io.ReadFull(client, buf); err != nil {
			done <- fmt.Errorf("client read: %w", err)
			return
		}
		if string(buf) != reply {
			done <- fmt.Errorf("client got %q, want %q", buf, reply)
			return
		}
		done <- nil
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if string(buf) != msg {
		t.Fatalf("server got %q, want %q", buf, msg)
	}
	if _, err := server.Write([]byte(reply)); err != nil {
		t.Fatalf("server write: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSessionNoMiddlebox(t *testing.T) {
	e := newEnv(t)
	client, server := runSession(t, e.clientConfig(), e.serverConfig())
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "hello mbtls", "hello client")
	if n := len(client.Middleboxes()); n != 0 {
		t.Fatalf("client reports %d middleboxes, want 0", n)
	}
}

func TestSessionOneClientSideMiddlebox(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "GET / HTTP/1.1\r\n\r\n", "HTTP/1.1 200 OK\r\n\r\n")

	mbs := client.Middleboxes()
	if len(mbs) != 1 || mbs[0].Name != "proxy.example" {
		t.Fatalf("client middleboxes = %+v, want proxy.example", mbs)
	}
	if len(server.Middleboxes()) != 0 {
		t.Fatal("server should not know about client-side middleboxes (endpoint isolation, §4.2)")
	}
	if mb.Stats().MbTLSSessions != 1 {
		t.Fatalf("middlebox stats: %+v", mb.Stats())
	}
}

func TestSessionTwoClientSideMiddleboxes(t *testing.T) {
	e := newEnv(t)
	mb1 := e.middlebox(t, "mbox-c1.example", core.ClientSide) // adjacent to client
	mb0 := e.middlebox(t, "mbox-c0.example", core.ClientSide) // adjacent to bridge
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb1, mb0)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "data through two middleboxes", "ack")

	mbs := client.Middleboxes()
	if len(mbs) != 2 {
		t.Fatalf("client reports %d middleboxes, want 2", len(mbs))
	}
	// Path order from the client outward: mb1 then mb0 (Figure 4).
	if mbs[0].Name != "mbox-c1.example" || mbs[1].Name != "mbox-c0.example" {
		t.Fatalf("middlebox order = [%s %s], want [mbox-c1 mbox-c0]", mbs[0].Name, mbs[1].Name)
	}
}

func TestSessionOneServerSideMiddlebox(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn.example", core.ServerSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "request", "response")

	if len(client.Middleboxes()) != 0 {
		t.Fatal("client should not know about server-side middleboxes")
	}
	mbs := server.Middleboxes()
	if len(mbs) != 1 || mbs[0].Name != "cdn.example" {
		t.Fatalf("server middleboxes = %+v", mbs)
	}
}

func TestSessionTwoServerSideMiddleboxes(t *testing.T) {
	e := newEnv(t)
	mbS0 := e.middlebox(t, "mbox-s0.example", core.ServerSide) // adjacent to bridge
	mbS1 := e.middlebox(t, "mbox-s1.example", core.ServerSide) // adjacent to server
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mbS0, mbS1)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "two server-side middleboxes", "ok")

	mbs := server.Middleboxes()
	if len(mbs) != 2 {
		t.Fatalf("server reports %d middleboxes, want 2", len(mbs))
	}
	// Path order from the server outward: S1 then S0.
	if mbs[0].Name != "mbox-s1.example" || mbs[1].Name != "mbox-s0.example" {
		t.Fatalf("middlebox order = [%s %s], want [mbox-s1 mbox-s0]", mbs[0].Name, mbs[1].Name)
	}
}

func TestSessionMixedMiddleboxes(t *testing.T) {
	e := newEnv(t)
	mbC := e.middlebox(t, "client-proxy.example", core.ClientSide)
	mbS := e.middlebox(t, "server-cdn.example", core.ServerSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mbC, mbS)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "mixed path", "mixed reply")

	if got := client.Middleboxes(); len(got) != 1 || got[0].Name != "client-proxy.example" {
		t.Fatalf("client middleboxes = %+v", got)
	}
	if got := server.Middleboxes(); len(got) != 1 || got[0].Name != "server-cdn.example" {
		t.Fatalf("server middleboxes = %+v", got)
	}
}

func TestSessionFourMiddleboxes(t *testing.T) {
	e := newEnv(t)
	c1 := e.middlebox(t, "c1.example", core.ClientSide)
	c0 := e.middlebox(t, "c0.example", core.ClientSide)
	s0 := e.middlebox(t, "s0.example", core.ServerSide)
	s1 := e.middlebox(t, "s1.example", core.ServerSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), c1, c0, s0, s1)
	defer client.Close()
	defer server.Close()
	// Several round trips to exercise sequence numbers on every hop.
	for i := 0; i < 5; i++ {
		exchange(t, client, server, fmt.Sprintf("ping %d with some padding", i), fmt.Sprintf("pong %d", i))
	}
}

// TestLegacyServer: an mbTLS client with client-side middleboxes
// interoperates with a completely unmodified TLS server (P5).
func TestLegacyServer(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)
	clientEnd, serverEnd := buildChain(t, mb)

	serverErr := make(chan error, 1)
	legacy := tls12.NewServerConn(serverEnd, &tls12.Config{Certificate: e.Origin})
	go func() {
		if err := legacy.Handshake(); err != nil {
			serverErr <- err
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(legacy, buf); err != nil {
			serverErr <- err
			return
		}
		if string(buf) != "hello" {
			serverErr <- fmt.Errorf("legacy server got %q", buf)
			return
		}
		_, err := legacy.Write([]byte("world"))
		serverErr <- err
	}()

	sess, err := core.Dial(clientEnd, e.clientConfig())
	if err != nil {
		t.Fatalf("Dial through middlebox to legacy server: %v", err)
	}
	defer sess.Close()
	if got := sess.Middleboxes(); len(got) != 1 {
		t.Fatalf("middleboxes = %+v", got)
	}
	if _, err := sess.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(sess, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("client got %q, want world", buf)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("legacy server: %v", err)
	}
}

// TestLegacyClient: an unmodified TLS client traverses a server-side
// middlebox and reaches an mbTLS server (P5).
func TestLegacyClient(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn.example", core.ServerSide)
	clientEnd, serverEnd := buildChain(t, mb)

	type res struct {
		sess *core.Session
		err  error
	}
	sch := make(chan res, 1)
	go func() {
		s, err := core.Accept(serverEnd, e.serverConfig())
		sch <- res{s, err}
	}()

	legacy := tls12.NewClientConn(clientEnd, &tls12.Config{RootCAs: e.CA.Pool(), ServerName: "origin.example"})
	if err := legacy.Handshake(); err != nil {
		t.Fatalf("legacy client handshake: %v", err)
	}
	sr := <-sch
	if sr.err != nil {
		t.Fatalf("mbTLS server: %v", sr.err)
	}
	defer sr.sess.Close()
	if got := sr.sess.Middleboxes(); len(got) != 1 || got[0].Name != "cdn.example" {
		t.Fatalf("server middleboxes = %+v", got)
	}
	exchange(t, legacy, sr.sess, "legacy hello", "mbtls reply")
}

// TestLegacyClientTransparent: a client-side middlebox sees no
// MiddleboxSupport extension and becomes a transparent relay.
func TestLegacyClientTransparent(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)
	clientEnd, serverEnd := buildChain(t, mb)

	serverErr := make(chan error, 1)
	legacyServer := tls12.NewServerConn(serverEnd, &tls12.Config{Certificate: e.Origin})
	go func() {
		if err := legacyServer.Handshake(); err != nil {
			serverErr <- err
			return
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(legacyServer, buf); err != nil {
			serverErr <- err
			return
		}
		_, err := legacyServer.Write(bytes.ToUpper(buf))
		serverErr <- err
	}()

	legacyClient := tls12.NewClientConn(clientEnd, &tls12.Config{RootCAs: e.CA.Pool(), ServerName: "origin.example"})
	if err := legacyClient.Handshake(); err != nil {
		t.Fatalf("legacy-to-legacy through middlebox: %v", err)
	}
	if _, err := legacyClient.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(legacyClient, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PING" {
		t.Fatalf("got %q", buf)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	if mb.Stats().MbTLSSessions != 0 {
		t.Fatal("middlebox should not have joined a legacy session")
	}
}

// TestLegacyServerStrict: a strict legacy server fails the handshake on
// an announcement; after the middlebox caches the failure, a retry
// succeeds transparently (paper §3.4).
func TestLegacyServerStrict(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn.example", core.ServerSide)

	dialOnce := func() error {
		clientEnd, serverEnd := buildChain(t, mb)
		legacyServer := tls12.NewServerConn(serverEnd, &tls12.Config{Certificate: e.Origin})
		serverErr := make(chan error, 1)
		go func() { serverErr <- legacyServer.Handshake() }()
		legacyClient := tls12.NewClientConn(clientEnd, &tls12.Config{RootCAs: e.CA.Pool(), ServerName: "origin.example"})
		cErr := legacyClient.Handshake()
		<-serverErr
		return cErr
	}

	if err := dialOnce(); err == nil {
		t.Fatal("first handshake through announcing middlebox should fail against a strict legacy server")
	}
	// Retry: the middlebox cached the failure and stays transparent.
	if err := dialOnce(); err != nil {
		t.Fatalf("retry should succeed transparently: %v", err)
	}
	if mb.Stats().AnnounceSkipped == 0 {
		t.Fatal("negative announcement cache was not used")
	}
}

// TestLegacyServerLenient: a lenient legacy server skips announcement
// records; the session proceeds without the middlebox.
func TestLegacyServerLenient(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "cdn2.example", core.ServerSide)
	clientEnd, serverEnd := buildChain(t, mb)

	legacyServer := tls12.NewServerConn(serverEnd, &tls12.Config{
		Certificate:           e.Origin,
		LenientUnknownRecords: true,
	})
	serverErr := make(chan error, 1)
	go func() {
		if err := legacyServer.Handshake(); err != nil {
			serverErr <- err
			return
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(legacyServer, buf); err != nil {
			serverErr <- err
			return
		}
		_, err := legacyServer.Write([]byte("pong"))
		serverErr <- err
	}()

	legacyClient := tls12.NewClientConn(clientEnd, &tls12.Config{RootCAs: e.CA.Pool(), ServerName: "origin.example"})
	if err := legacyClient.Handshake(); err != nil {
		t.Fatalf("handshake with lenient legacy server: %v", err)
	}
	if _, err := legacyClient.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(legacyClient, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestProcessor: a middlebox processor transforms application data.
func TestProcessor(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "rewriter.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.NewProcessor = func() core.Processor {
			return core.ProcessorFunc(func(dir core.Direction, chunk []byte) ([]byte, error) {
				if dir == core.DirClientToServer {
					return bytes.ReplaceAll(chunk, []byte("cat"), []byte("dog")), nil
				}
				return chunk, nil
			})
		}
	})
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()

	go client.Write([]byte("the cat sat")) //nolint:errcheck
	buf := make([]byte, 11)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "the dog sat" {
		t.Fatalf("server got %q, want %q", buf, "the dog sat")
	}
}

// TestAttestation: an enclave-backed middlebox attests during the
// secondary handshake and the client's policy accepts it (P3B).
func TestAttestation(t *testing.T) {
	e := newEnv(t)
	image := enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0", Config: "aes256-only"}
	encl := e.Platform.CreateEnclave(image)

	mb := e.middlebox(t, "sgx-proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.Enclave = encl
	})

	ccfg := e.clientConfig()
	ccfg.RequireMiddleboxAttestation = true
	ccfg.MiddleboxVerifier = e.Verifier(image)

	client, server := runSession(t, ccfg, e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "attested path", "ok")

	mbs := client.Middleboxes()
	if len(mbs) != 1 || !mbs[0].Attested {
		t.Fatalf("middlebox not attested: %+v", mbs)
	}
	if mbs[0].Measurement != image.Measurement() {
		t.Fatal("measurement mismatch")
	}
}

// TestAttestationRequiredButMissing: a non-enclave middlebox cannot
// join a session whose client requires attestation.
func TestAttestationRequiredButMissing(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "plain-proxy.example", core.ClientSide)
	clientEnd, serverEnd := buildChain(t, mb)

	go func() {
		core.Accept(serverEnd, e.serverConfig()) //nolint:errcheck
	}()

	ccfg := e.clientConfig()
	ccfg.RequireMiddleboxAttestation = true
	ccfg.MiddleboxVerifier = &enclave.Verifier{Authority: make([]byte, 32)}
	_, err := core.Dial(clientEnd, ccfg)
	if err == nil {
		t.Fatal("client accepted an unattested middlebox despite requiring attestation")
	}
}

// TestAttestationWrongCode: an enclave running unexpected code is
// rejected by the measurement policy.
func TestAttestationWrongCode(t *testing.T) {
	e := newEnv(t)
	expected := enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0", Config: "aes256-only"}
	malicious := enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0-evil", Config: "aes256-only"}
	encl := e.Platform.CreateEnclave(malicious)

	mb := e.middlebox(t, "sgx-proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.Enclave = encl
	})
	clientEnd, serverEnd := buildChain(t, mb)
	go func() {
		core.Accept(serverEnd, e.serverConfig()) //nolint:errcheck
	}()

	ccfg := e.clientConfig()
	ccfg.RequireMiddleboxAttestation = true
	ccfg.MiddleboxVerifier = e.Verifier(expected)
	_, err := core.Dial(clientEnd, ccfg)
	if err == nil {
		t.Fatal("client accepted a middlebox running unexpected code")
	}
	if !strings.Contains(err.Error(), "") {
		t.Fatal() // unreachable; keeps err used meaningfully
	}
}

// TestApproveRejection: the application veto aborts the session, at
// whichever endpoint the vetoed middlebox belongs to.
func TestApproveRejection(t *testing.T) {
	e := newEnv(t)
	veto := func(core.MiddleboxSummary) bool { return false }
	for _, mode := range []core.Mode{core.ClientSide, core.ServerSide} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			mb := e.middlebox(t, "unwanted.example", mode)
			clientEnd, serverEnd := buildChain(t, mb)
			ccfg, scfg := e.clientConfig(), e.serverConfig()
			var err error
			if mode == core.ClientSide {
				go core.Accept(serverEnd, scfg) //nolint:errcheck
				ccfg.Approve = veto
				_, err = core.Dial(clientEnd, ccfg)
			} else {
				go core.Dial(clientEnd, ccfg) //nolint:errcheck
				scfg.Approve = veto
				_, err = core.Accept(serverEnd, scfg)
			}
			if err == nil || !strings.Contains(err.Error(), "rejected by application") {
				t.Fatalf("err = %v, want the application's rejection of the middlebox", err)
			}
		})
	}
}

// TestApproveSummary: the approval callback sees the verified identity.
func TestApproveSummary(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "visible.example", core.ClientSide)
	var mu sync.Mutex
	var seen []core.MiddleboxSummary
	ccfg := e.clientConfig()
	ccfg.Approve = func(s core.MiddleboxSummary) bool {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
		return true
	}
	client, server := runSession(t, ccfg, e.serverConfig(), mb)
	defer client.Close()
	defer server.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Name != "visible.example" || len(seen[0].Certificates) == 0 {
		t.Fatalf("approval summaries = %+v", seen)
	}
}

// TestLargeTransferThroughMiddleboxes pushes multi-record payloads
// through a two-middlebox path in both directions.
func TestLargeTransferThroughMiddleboxes(t *testing.T) {
	e := newEnv(t)
	mbC := e.middlebox(t, "c.example", core.ClientSide)
	mbS := e.middlebox(t, "s.example", core.ServerSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mbC, mbS)
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	done := make(chan error, 1)
	go func() {
		if _, err := client.Write(payload); err != nil {
			done <- err
			return
		}
		buf := make([]byte, len(payload))
		if _, err := io.ReadFull(client, buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, payload) {
			done <- fmt.Errorf("echo corrupted")
			return
		}
		done <- nil
	}()
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("upload corrupted")
	}
	if _, err := server.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCloseNotifyPropagates: close_notify crosses rekeying middleboxes.
func TestCloseNotifyPropagates(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), mb)
	exchange(t, client, server, "before close", "okay")

	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := server.Read(buf)
		readDone <- err
	}()
	client.Close()
	if err := <-readDone; err != io.EOF {
		t.Fatalf("server read after client close = %v, want io.EOF", err)
	}
	server.Close()
}

// TestVaultExposure: without an enclave, hop keys are visible in the
// middlebox's host memory; with an enclave, they are not (P1A).
func TestVaultExposure(t *testing.T) {
	e := newEnv(t)
	plain := e.middlebox(t, "plain.example", core.ClientSide)
	client, server := runSession(t, e.clientConfig(), e.serverConfig(), plain)
	exchange(t, client, server, "secret data", "ok")
	client.Close()
	server.Close()
	dump := plain.Vault().DumpHostMemory()
	if len(dump) == 0 {
		t.Fatal("host-memory middlebox should expose keys in a memory dump")
	}

	encl := e.Platform.CreateEnclave(enclave.CodeImage{Name: "p", Version: "1"})
	protected := e.middlebox(t, "sgx.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.Enclave = encl
	})
	client, server = runSession(t, e.clientConfig(), e.serverConfig(), protected)
	exchange(t, client, server, "secret data", "ok")
	client.Close()
	server.Close()
	if dump := protected.Vault().DumpHostMemory(); len(dump) != 0 {
		t.Fatalf("enclave middlebox leaked %d secrets to host memory", len(dump))
	}
}
