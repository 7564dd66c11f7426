package tls12_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/tls12"
)

// refKeyBlock is RFC 5246 §5/§6.3 written out against crypto/hmac,
// sharing nothing with prf.go: P_hash(master, "key expansion" ||
// server_random || client_random), a fresh HMAC per step.
func refKeyBlock(suite uint16, master, clientRandom, serverRandom []byte) []byte {
	newHash, keyLen := sha256.New, 16
	if suite == tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384 {
		newHash, keyLen = sha512.New384, 32
	}
	mac := func(parts ...[]byte) []byte {
		h := hmac.New(newHash, master)
		for _, p := range parts {
			h.Write(p)
		}
		return h.Sum(nil)
	}
	seed := append(append([]byte("key expansion"), serverRandom...), clientRandom...)
	var out []byte
	for a := mac(seed); len(out) < 2*keyLen+8; a = mac(a) {
		out = append(out, mac(a, seed)...)
	}
	return out[:2*keyLen+8]
}

// resumablePair returns configs whose second handshake resumes the
// first's ticket, restricted to one suite.
func resumablePair(t *testing.T, suite uint16) (clientCfg, serverCfg *tls12.Config) {
	t.Helper()
	_, clientCfg, serverCfg = testPKI(t, "example.com")
	clientCfg.CipherSuites = []uint16{suite}
	serverCfg.EnableTickets = true
	serverCfg.TicketKeys = newSTEK(t)
	clientCfg.EnableTickets = true
	clientCfg.OnNewTicket = func(tk *tls12.SessionTicket) { clientCfg.SessionTicket = tk }
	return clientCfg, serverCfg
}

// TestKeyScheduleEquivalence pins the one-derivation key schedule to
// the RFC: for both suites, full and resumed, on both ends, the cached
// block and every ExportSessionKeys are the reference derivation from
// the connection's master secret and randoms; Wipe zeroizes the block
// in place and export then fails as it did when it re-derived.
func TestKeyScheduleEquivalence(t *testing.T) {
	for _, suite := range []uint16{
		tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		tls12.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
	} {
		clientCfg, serverCfg := resumablePair(t, suite)
		for _, resumed := range []bool{false, true} {
			client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
			if cErr != nil || sErr != nil {
				t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
			}
			if got := client.ConnectionState(); got.Resumed != resumed || got.CipherSuite != suite {
				t.Fatalf("suite %#04x: resumed=%v, want %v (negotiated %#04x)", suite, got.Resumed, resumed, got.CipherSuite)
			}
			for role, conn := range map[string]*tls12.Conn{"client": client, "server": server} {
				name := fmt.Sprintf("suite %#04x resumed=%v %s", suite, resumed, role)
				master, block, cr, sr := conn.KeyScheduleForTest()
				want := refKeyBlock(suite, master, cr, sr)
				if !bytes.Equal(block, want) {
					t.Fatalf("%s: cached key block differs from the reference derivation", name)
				}
				for i := 0; i < 2; i++ {
					sk, err := conn.ExportSessionKeys()
					if err != nil {
						t.Fatalf("%s: export %d: %v", name, i, err)
					}
					got := bytes.Join([][]byte{sk.ClientWriteKey, sk.ServerWriteKey, sk.ClientWriteIV, sk.ServerWriteIV}, nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: export %d differs from the reference derivation", name, i)
					}
					sk.Wipe() // a copy: the next export and the cached block must not notice
				}
				conn.Wipe()
				if !bytes.Equal(block, make([]byte, len(want))) {
					t.Fatalf("%s: cached key block survives Wipe", name)
				}
				if _, err := conn.ExportSessionKeys(); err == nil || !strings.Contains(err.Error(), "wiped") {
					t.Fatalf("%s: export after Wipe: %v, want wiped error", name, err)
				}
			}
			client.Close()
			server.Close()
		}
	}
}

// TestExportRacesWipe runs exports against Wipe for the race detector:
// every export either succeeds with the whole block or fails wiped.
func TestExportRacesWipe(t *testing.T) {
	_, clientCfg, serverCfg := testPKI(t, "example.com")
	client, server, cErr, sErr := runHandshake(t, clientCfg, serverCfg)
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	defer client.Close()
	defer server.Close()
	first, err := client.ExportSessionKeys()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sk, err := client.ExportSessionKeys()
				if err != nil {
					return // wiped: every later export fails too
				}
				if !bytes.Equal(sk.ClientWriteKey, first.ClientWriteKey) || !bytes.Equal(sk.ServerWriteIV, first.ServerWriteIV) {
					t.Error("export observed a partially wiped key block")
					return
				}
			}
		}()
	}
	client.Wipe()
	wg.Wait()
}
