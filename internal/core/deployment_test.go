package core_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/sessionhost"
)

// serveMiddlebox runs a middlebox behind a session host (the only
// accept-loop shape the repo supports) and tears it down with the
// test.
func serveMiddlebox(t *testing.T, mb *core.Middlebox, ln net.Listener, dial func() (net.Conn, error)) *sessionhost.Host {
	t.Helper()
	host, err := sessionhost.New(sessionhost.Config{
		Name:    mb.Name(),
		Handler: sessionhost.NewMiddleboxHandler(mb, dial),
	})
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(ln)                  //nolint:errcheck
	t.Cleanup(func() { host.Close() }) //nolint:errcheck
	return host
}

// TestDeploymentPreconfiguredMiddlebox reproduces §3.4's pre-configured
// client-side middlebox flow: the client knows the proxy in advance
// (e.g., from user configuration), lists it in the MiddleboxSupport
// extension, and opens its connection directly to the proxy, which
// relays to the origin by address.
func TestDeploymentPreconfiguredMiddlebox(t *testing.T) {
	e := newEnv(t)
	network := netsim.NewNetwork()

	// Origin server.
	serverLn, err := network.Listen("origin.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	originHost, err := sessionhost.New(sessionhost.Config{
		Name: "origin",
		Handler: sessionhost.NewServerHandler(e.serverConfig(), func(sess *core.Session) error {
			return httpx.Serve(sess, func(req *httpx.Request) *httpx.Response {
				return &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("origin says hi")}
			})
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	go originHost.Serve(serverLn)            //nolint:errcheck
	t.Cleanup(func() { originHost.Close() }) //nolint:errcheck

	// The configured proxy, serving many clients.
	proxy := e.middlebox(t, "proxy.example", core.ClientSide)
	proxyLn, err := network.Listen("proxy.example:3128")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	proxyHost := serveMiddlebox(t, proxy, proxyLn, func() (net.Conn, error) {
		return network.Dial("proxy.example", "origin.example:443")
	})

	// Several clients connect to the proxy they were configured with.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := network.Dial(fmt.Sprintf("client-%d", i), "proxy.example:3128")
			if err != nil {
				errs <- err
				return
			}
			ccfg := e.clientConfig()
			ccfg.KnownMiddleboxes = []string{"proxy.example:3128"}
			sess, err := core.Dial(conn, ccfg)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			defer sess.Close()
			if got := sess.Middleboxes(); len(got) != 1 || got[0].Name != "proxy.example" {
				errs <- fmt.Errorf("client %d middleboxes: %+v", i, got)
				return
			}
			resp, err := httpx.Do(sess, &httpx.Request{Method: "GET", Path: "/", Host: "origin.example", Header: httpx.Header{}})
			if err != nil {
				errs <- fmt.Errorf("client %d fetch: %w", i, err)
				return
			}
			if resp.StatusCode != 200 || string(resp.Body) != "origin says hi" {
				errs <- fmt.Errorf("client %d response: %d %q", i, resp.StatusCode, resp.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := proxy.Stats().MbTLSSessions; got != 4 {
		t.Fatalf("proxy served %d mbTLS sessions, want 4", got)
	}
	if got := proxyHost.Snapshot().Accepted; got != 4 {
		t.Fatalf("proxy host admitted %d sessions, want 4", got)
	}
}

// TestDeploymentChainedProxies runs two middleboxes as independent
// Serve processes with a client traversing both.
func TestDeploymentChainedProxies(t *testing.T) {
	e := newEnv(t)
	network := netsim.NewNetwork()

	serverLn, err := network.Listen("origin.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	go func() {
		conn, err := serverLn.Accept()
		if err != nil {
			return
		}
		sess, err := core.Accept(conn, e.serverConfig())
		if err != nil {
			return
		}
		defer sess.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(sess, buf); err != nil {
			return
		}
		sess.Write(buf) //nolint:errcheck
	}()

	outer := e.middlebox(t, "outer.example", core.ClientSide)
	inner := e.middlebox(t, "inner.example", core.ClientSide)
	outerLn, err := network.Listen("outer.example:3128")
	if err != nil {
		t.Fatal(err)
	}
	defer outerLn.Close()
	innerLn, err := network.Listen("inner.example:3128")
	if err != nil {
		t.Fatal(err)
	}
	defer innerLn.Close()
	serveMiddlebox(t, outer, outerLn, func() (net.Conn, error) {
		return network.Dial("outer.example", "inner.example:3128")
	})
	serveMiddlebox(t, inner, innerLn, func() (net.Conn, error) {
		return network.Dial("inner.example", "origin.example:443")
	})

	conn, err := network.Dial("client", "outer.example:3128")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.Dial(conn, e.clientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mbs := sess.Middleboxes()
	if len(mbs) != 2 || mbs[0].Name != "outer.example" || mbs[1].Name != "inner.example" {
		t.Fatalf("middleboxes = %+v", mbs)
	}
	if _, err := sess.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(sess, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
}
