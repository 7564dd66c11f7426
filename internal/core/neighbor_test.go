package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tls12"
)

// neighborEnv builds client/server configs with the §4.2 neighbor-keys
// mode enabled.
func neighborConfigs(e *env) (*core.ClientConfig, *core.ServerConfig) {
	ccfg := e.clientConfig()
	ccfg.NeighborKeys = true
	ccfg.MiddleboxTLS = &tls12.Config{RootCAs: e.CA.Pool()}
	scfg := e.serverConfig()
	return ccfg, scfg
}

// TestNeighborKeysSession: the neighbor-keys mode establishes a working
// session through one middlebox, with discovery and data exchange
// intact.
func TestNeighborKeysSession(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.NeighborRoots = e.CA.Pool()
	})
	ccfg, scfg := neighborConfigs(e)
	client, server := runSession(t, ccfg, scfg, mb)
	defer client.Close()
	defer server.Close()

	if got := client.Middleboxes(); len(got) != 1 || got[0].Name != "proxy.example" {
		t.Fatalf("middleboxes = %+v", got)
	}
	for i := 0; i < 3; i++ {
		exchange(t, client, server,
			fmt.Sprintf("neighbor-mode request %d", i),
			fmt.Sprintf("neighbor-mode reply %d", i))
	}
}

// TestNeighborKeysTwoMiddleboxes: every adjacent pair, including
// middlebox↔middlebox, negotiates its own hop.
func TestNeighborKeysTwoMiddleboxes(t *testing.T) {
	e := newEnv(t)
	mb1 := e.middlebox(t, "m1.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.NeighborRoots = e.CA.Pool()
	})
	mb0 := e.middlebox(t, "m0.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.NeighborRoots = e.CA.Pool()
	})
	ccfg, scfg := neighborConfigs(e)
	client, server := runSession(t, ccfg, scfg, mb1, mb0)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "through two neighbor-keyed middleboxes", "ack")
}

// TestNeighborKeysNoMiddlebox: the mode degrades to ordinary mbTLS when
// no middlebox joins (primary session keys remain).
func TestNeighborKeysNoMiddlebox(t *testing.T) {
	e := newEnv(t)
	ccfg, scfg := neighborConfigs(e)
	client, server := runSession(t, ccfg, scfg)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "no middlebox, neighbor flag set", "fine")
}

// TestNeighborKeysEndpointsLackHopKeys is the point of the mode: the
// client's exported primary (bridge) keys can no longer decrypt or
// forge traffic on the middlebox→server hop, so the §4.2 poisoning
// attack fails. The companion attack test lives in internal/adversary;
// here we verify the key separation directly.
func TestNeighborKeysEndpointsLackHopKeys(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.NeighborRoots = e.CA.Pool()
	})
	ccfg, scfg := neighborConfigs(e)
	client, server := runSession(t, ccfg, scfg, mb)
	defer client.Close()
	defer server.Close()
	exchange(t, client, server, "probe data for key separation", "ok")

	// The middlebox's upstream hop keys must be unrelated to the
	// primary session keys the client knows.
	clientKeys, err := client.ExportPrimaryKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Vault names are namespaced per session ("session/<id>/hop/...");
	// this test runs one session, so suffix lookup is unambiguous.
	dump := mb.Vault().DumpHostMemory()
	var upC2S, downC2S []byte
	for name, v := range dump {
		if strings.HasSuffix(name, "/hop/up-c2s") {
			upC2S = v
		}
		if strings.HasSuffix(name, "/hop/down-c2s") {
			downC2S = v
		}
	}
	if upC2S == nil {
		t.Fatal("middlebox vault lacks upstream hop key")
	}
	if string(upC2S) == string(clientKeys.ClientWriteKey) || string(upC2S) == string(clientKeys.ServerWriteKey) {
		t.Fatal("upstream hop key equals a primary session key: the client could still forge")
	}
	if string(downC2S) == string(upC2S) {
		t.Fatal("hops share keys in neighbor mode")
	}
}

// TestNeighborKeysServerSideMiddleboxStaysOut: server-side middleboxes
// are out of scope for the mode and must degrade to transparent relays
// rather than break the session.
func TestNeighborKeysServerSideMiddleboxStaysOut(t *testing.T) {
	e := newEnv(t)
	mbS := e.middlebox(t, "cdn.example", core.ServerSide)
	ccfg, scfg := neighborConfigs(e)
	client, server := runSession(t, ccfg, scfg, mbS)
	defer client.Close()
	defer server.Close()
	if n := len(server.Middleboxes()); n != 0 {
		t.Fatalf("server-side middlebox joined a neighbor-keys session: %d", n)
	}
	exchange(t, client, server, "transparent server-side middlebox", "ok")
}
