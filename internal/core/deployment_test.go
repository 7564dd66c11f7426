package core_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/chain/chaintest"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/sessionhost"
)

// hostMiddlebox serves a middlebox called name on node, relaying to next.
func hostMiddlebox(t *testing.T, h *chain.Hosted, name, node, next string) *chain.Hop {
	t.Helper()
	hop, err := h.Middlebox(node, core.MiddleboxConfig{Name: name, Mode: core.ClientSide},
		sessionhost.Config{Name: name}, next)
	if err != nil {
		t.Fatal(err)
	}
	return hop
}

// TestDeploymentPreconfiguredMiddlebox reproduces §3.4's pre-configured
// client-side middlebox flow: the client knows the proxy in advance
// (e.g., from user configuration), lists it in the MiddleboxSupport
// extension, and opens its connection directly to the proxy, which
// relays to the origin by address.
func TestDeploymentPreconfiguredMiddlebox(t *testing.T) {
	h := chaintest.NewHosted(t, chain.TransportNetsim)

	// Origin server.
	_, origin, err := h.Serve("origin.example:443", sessionhost.Config{
		Name: "origin",
		Handler: sessionhost.NewServerHandler(h.PKI.ServerConfig(), func(sess *core.Session) error {
			return httpx.Serve(sess, func(req *httpx.Request) *httpx.Response {
				return &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("origin says hi")}
			})
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The configured proxy, serving many clients.
	proxy := hostMiddlebox(t, h, "proxy.example", "proxy.example:3128", origin)

	// Several clients connect to the proxy they were configured with.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := proxy.Dial()
			if err != nil {
				errs <- err
				return
			}
			ccfg := h.PKI.ClientConfig()
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
	if got := proxy.Middlebox.Stats().MbTLSSessions; got != 4 {
		t.Fatalf("proxy served %d mbTLS sessions, want 4", got)
	}
	if got := proxy.Host.Snapshot().Accepted; got != 4 {
		t.Fatalf("proxy host admitted %d sessions, want 4", got)
	}
}

// TestDeploymentChainedProxies runs two middleboxes as independent
// Serve processes with a client traversing both.
func TestDeploymentChainedProxies(t *testing.T) {
	h := chaintest.NewHosted(t, chain.TransportNetsim)
	_, origin, err := h.Serve("origin.example:443", sessionhost.Config{
		Name: "origin",
		Handler: sessionhost.NewServerHandler(h.PKI.ServerConfig(), func(sess *core.Session) error {
			buf := make([]byte, 5)
			if _, err := io.ReadFull(sess, buf); err != nil {
				return err
			}
			_, err := sess.Write(buf)
			return err
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	hostMiddlebox(t, h, "inner.example", "inner.example:3128", origin)
	outer := hostMiddlebox(t, h, "outer.example", "outer.example:3128", "inner.example:3128")

	conn, err := outer.Dial()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.Dial(conn, h.PKI.ClientConfig())
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
