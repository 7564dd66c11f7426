package splittls

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

type fixture struct {
	originCA    *certs.CA
	interceptCA *certs.CA
	serverCert  *tls12.Certificate
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	originCA, err := certs.NewCA("origin root")
	if err != nil {
		t.Fatal(err)
	}
	interceptCA, err := certs.NewCA("corporate interception root")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := originCA.Issue("origin.example", []string{"origin.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{originCA: originCA, interceptCA: interceptCA, serverCert: serverCert}
}

// runInterception wires client → interceptor → server and returns the
// client conn plus channels for the server side.
func runInterception(t *testing.T, fx *fixture, ic *Interceptor, clientRoots *certs.CA) (*tls12.Conn, chan error) {
	t.Helper()
	c0a, c0b := netsim.Pipe()
	c1a, c1b := netsim.Pipe()
	go ic.Handle(c0b, c1a) //nolint:errcheck

	serverErr := make(chan error, 1)
	go func() {
		conn := tls12.NewServerConn(c1b, &tls12.Config{Certificate: fx.serverCert})
		if err := conn.Handshake(); err != nil {
			serverErr <- err
			return
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			serverErr <- err
			return
		}
		_, err := conn.Write(bytes.ToUpper(buf))
		serverErr <- err
	}()
	client := tls12.NewClientConn(c0a, &tls12.Config{
		RootCAs: clientRoots.Pool(), ServerName: "origin.example",
	})
	return client, serverErr
}

func TestInterceptionWorksWithProvisionedRoot(t *testing.T) {
	fx := newFixture(t)
	ic := &Interceptor{CA: fx.interceptCA, Upstream: &tls12.Config{RootCAs: fx.originCA.Pool()}, VerifyUpstream: true}
	client, serverErr := runInterception(t, fx, ic, fx.interceptCA)
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake through interceptor: %v", err)
	}
	// The client sees the FORGED certificate, not the origin's — the
	// paper's core criticism of split TLS (§2.2).
	state := client.ConnectionState()
	if state.PeerCertificates[0].Issuer.CommonName != "corporate interception root" {
		t.Fatalf("client saw issuer %q", state.PeerCertificates[0].Issuer.CommonName)
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PING" {
		t.Fatalf("got %q", buf)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

func TestClientWithoutCustomRootRejects(t *testing.T) {
	fx := newFixture(t)
	ic := &Interceptor{CA: fx.interceptCA, Upstream: &tls12.Config{RootCAs: fx.originCA.Pool()}, VerifyUpstream: true}
	// Client trusts only the origin CA: the forged cert must fail.
	client, _ := runInterception(t, fx, ic, fx.originCA)
	if err := client.Handshake(); err == nil {
		t.Fatal("client accepted a forged certificate without the custom root")
	}
}

// TestLaxUpstreamVerification reproduces the misconfiguration the
// paper cites (Durumeric et al.): the interceptor skips server
// verification, so the client unknowingly talks to an impostor.
func TestLaxUpstreamVerification(t *testing.T) {
	fx := newFixture(t)
	rogueCert, err := certs.SelfSigned("origin.example", []string{"origin.example"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(verify bool) error {
		ic := &Interceptor{CA: fx.interceptCA, Upstream: &tls12.Config{RootCAs: fx.originCA.Pool()}, VerifyUpstream: verify}
		c0a, c0b := netsim.Pipe()
		c1a, c1b := netsim.Pipe()
		go ic.Handle(c0b, c1a) //nolint:errcheck
		go func() {
			conn := tls12.NewServerConn(c1b, &tls12.Config{Certificate: rogueCert})
			conn.Handshake() //nolint:errcheck
		}()
		client := tls12.NewClientConn(c0a, &tls12.Config{
			RootCAs: fx.interceptCA.Pool(), ServerName: "origin.example",
		})
		return client.Handshake()
	}
	if err := run(false); err != nil {
		t.Fatalf("lax interceptor should connect the client to anyone: %v", err)
	}
	if err := run(true); err == nil {
		t.Fatal("verifying interceptor accepted an impostor origin")
	}
}

func TestInterceptorWithProcessor(t *testing.T) {
	fx := newFixture(t)
	ic := &Interceptor{
		CA:             fx.interceptCA,
		Upstream:       &tls12.Config{RootCAs: fx.originCA.Pool()},
		VerifyUpstream: true,
		NewProcessor: func() core.Processor {
			return core.ProcessorFunc(func(dir core.Direction, b []byte) ([]byte, error) {
				if dir == core.DirClientToServer {
					return bytes.ReplaceAll(b, []byte("ping"), []byte("pong")), nil
				}
				return b, nil
			})
		},
	}
	client, serverErr := runInterception(t, fx, ic, fx.interceptCA)
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte("ping")) //nolint:errcheck
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PONG" {
		t.Fatalf("got %q, want PONG (processor rewrite + server upcasing)", buf)
	}
	<-serverErr
}

func TestForgedCertCache(t *testing.T) {
	fx := newFixture(t)
	ic := &Interceptor{CA: fx.interceptCA, Upstream: &tls12.Config{RootCAs: fx.originCA.Pool()}}
	c1, err := ic.forgeCert("a.example")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ic.forgeCert("a.example")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("forged certificate not cached")
	}
	c3, err := ic.forgeCert("b.example")
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("distinct hosts share a forged certificate")
	}
}
