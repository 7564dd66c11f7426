package tls12

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClientHelloRoundTrip(t *testing.T) {
	h := &ClientHello{
		SessionID:          []byte{1, 2, 3},
		CipherSuites:       []uint16{TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256},
		ServerName:         "origin.example",
		HasSessionTicket:   true,
		SessionTicket:      []byte("opaque ticket bytes"),
		RequestAttestation: true,
		MiddleboxSupport: &MiddleboxSupport{
			OptimisticHellos: [][]byte{[]byte("hello-one"), []byte("hello-two")},
			Middleboxes:      []string{"proxy-a.example:443", "proxy-b.example:443"},
		},
	}
	copy(h.Random[:], bytes.Repeat([]byte{0xAB}, 32))

	got, err := ParseClientHello(h.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Random != h.Random || got.ServerName != h.ServerName {
		t.Fatalf("basic fields corrupted: %+v", got)
	}
	if !reflect.DeepEqual(got.CipherSuites, h.CipherSuites) {
		t.Fatalf("suites = %v", got.CipherSuites)
	}
	if !got.HasSessionTicket || !bytes.Equal(got.SessionTicket, h.SessionTicket) {
		t.Fatal("ticket extension corrupted")
	}
	if !got.RequestAttestation {
		t.Fatal("attestation request lost")
	}
	ms := got.MiddleboxSupport
	if ms == nil || len(ms.OptimisticHellos) != 2 || len(ms.Middleboxes) != 2 {
		t.Fatalf("MiddleboxSupport = %+v", ms)
	}
	if string(ms.OptimisticHellos[1]) != "hello-two" || ms.Middleboxes[0] != "proxy-a.example:443" {
		t.Fatal("MiddleboxSupport contents corrupted")
	}
	if !bytes.Equal(got.SessionID, h.SessionID) {
		t.Fatal("session ID corrupted")
	}
}

// TestPropertyClientHelloRoundTrip fuzzes hello fields through
// marshal/parse.
func TestPropertyClientHelloRoundTrip(t *testing.T) {
	f := func(random [32]byte, serverName string, suites []uint16, mboxNames []string) bool {
		if len(serverName) > 200 {
			serverName = serverName[:200]
		}
		// Strip NULs and newlines that a hostname could not contain
		// (the codec is 8-bit clean; this keeps comparisons simple).
		if len(suites) == 0 {
			suites = []uint16{TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384}
		}
		if len(suites) > 50 {
			suites = suites[:50]
		}
		if len(mboxNames) > 20 {
			mboxNames = mboxNames[:20]
		}
		for i := range mboxNames {
			if len(mboxNames[i]) > 100 {
				mboxNames[i] = mboxNames[i][:100]
			}
		}
		h := &ClientHello{
			Random:       random,
			CipherSuites: suites,
			ServerName:   serverName,
		}
		if len(mboxNames) > 0 {
			h.MiddleboxSupport = &MiddleboxSupport{Middleboxes: mboxNames}
		}
		got, err := ParseClientHello(h.marshal())
		if err != nil {
			return false
		}
		if got.Random != random || got.ServerName != serverName {
			return false
		}
		if !reflect.DeepEqual(got.CipherSuites, suites) {
			return false
		}
		if len(mboxNames) > 0 && !reflect.DeepEqual(got.MiddleboxSupport.Middleboxes, mboxNames) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{CipherSuite: TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, TicketExpected: true}
	copy(sh.Random[:], bytes.Repeat([]byte{0xCD}, 32))
	typ, body, err := splitHandshake(sh.marshal())
	if err != nil || typ != TypeServerHello {
		t.Fatalf("split: %v %v", typ, err)
	}
	got, err := parseServerHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Random != sh.Random || got.CipherSuite != sh.CipherSuite || !got.TicketExpected {
		t.Fatalf("got %+v", got)
	}
}

func TestCertificateMsgRoundTrip(t *testing.T) {
	m := &certificateMsg{chain: [][]byte{bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 500)}}
	typ, body, err := splitHandshake(m.marshal())
	if err != nil || typ != TypeCertificate {
		t.Fatal(err)
	}
	got, err := parseCertificateMsg(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.chain) != 2 || !bytes.Equal(got.chain[0], m.chain[0]) || !bytes.Equal(got.chain[1], m.chain[1]) {
		t.Fatal("chain corrupted")
	}
}

func TestServerKeyExchangeRoundTrip(t *testing.T) {
	m := &serverKeyExchange{
		publicKey: bytes.Repeat([]byte{7}, 32),
		signature: bytes.Repeat([]byte{8}, 64),
	}
	_, body, err := splitHandshake(m.marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseServerKeyExchange(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.publicKey, m.publicKey) || !bytes.Equal(got.signature, m.signature) {
		t.Fatal("SKE corrupted")
	}
}

func TestSGXAttestationRoundTrip(t *testing.T) {
	m := &sgxAttestationMsg{quote: bytes.Repeat([]byte{0x5A}, 600)}
	_, body, err := splitHandshake(m.marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSGXAttestation(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.quote, m.quote) {
		t.Fatal("quote corrupted")
	}
}

// TestPropertyParsersNeverPanic: all message parsers survive arbitrary
// bytes.
func TestPropertyParsersNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		ParseClientHello(data)       //nolint:errcheck
		parseServerHello(data)       //nolint:errcheck
		parseCertificateMsg(data)    //nolint:errcheck
		parseServerKeyExchange(data) //nolint:errcheck
		parseClientKeyExchange(data) //nolint:errcheck
		parseFinished(data)          //nolint:errcheck
		parseNewSessionTicket(data)  //nolint:errcheck
		parseSGXAttestation(data)    //nolint:errcheck
		parseMiddleboxSupport(data)  //nolint:errcheck
	}
}

// TestPropertyTruncatedHellosRejected: any strict prefix of a valid
// ClientHello fails to parse (no silent partial success).
func TestPropertyTruncatedHellosRejected(t *testing.T) {
	h := &ClientHello{
		CipherSuites:     []uint16{TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384},
		ServerName:       "origin.example",
		MiddleboxSupport: &MiddleboxSupport{Middleboxes: []string{"mbox.example"}},
	}
	full := h.marshal()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ParseClientHello(full[:cut]); err == nil {
			t.Fatalf("truncated hello (%d/%d bytes) parsed", cut, len(full))
		}
	}
}

func TestPRFProperties(t *testing.T) {
	secret := bytes.Repeat([]byte{0x11}, 48)
	seed := bytes.Repeat([]byte{0x22}, 64)

	// Deterministic.
	a := make([]byte, 100)
	b := make([]byte, 100)
	prf(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, secret), a, "test label", seed)
	prf(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, secret), b, "test label", seed)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	// Label-separated.
	prf(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, secret), b, "other label", seed)
	if bytes.Equal(a, b) {
		t.Fatal("distinct labels produced identical output")
	}
	// Prefix-consistent: a longer expansion starts with the shorter.
	long := make([]byte, 200)
	prf(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, secret), long, "test label", seed)
	if !bytes.Equal(long[:100], a) {
		t.Fatal("PRF expansion is not prefix-consistent")
	}
	// Suite hashes differ.
	c := make([]byte, 100)
	prf(prfMAC(TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, secret), c, "test label", seed)
	if bytes.Equal(a, c) {
		t.Fatal("SHA-256 and SHA-384 PRFs agree")
	}
}

func TestKeysFromMasterSymmetry(t *testing.T) {
	master := bytes.Repeat([]byte{0x33}, 48)
	cr := bytes.Repeat([]byte{0x44}, 32)
	sr := bytes.Repeat([]byte{0x55}, 32)
	const suite = TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384
	cwKey, swKey, cwIV, swIV := splitKeyBlock(suite, keyBlock(prfMAC(suite, master), cr, sr, 72))
	if len(cwKey) != 32 || len(swKey) != 32 || len(cwIV) != 4 || len(swIV) != 4 {
		t.Fatalf("key block geometry: %d/%d/%d/%d", len(cwKey), len(swKey), len(cwIV), len(swIV))
	}
	if bytes.Equal(cwKey, swKey) {
		t.Fatal("client and server write keys identical")
	}
	cwKey2, _, _, _ := splitKeyBlock(suite, keyBlock(prfMAC(suite, master), cr, sr, 72))
	if !bytes.Equal(cwKey, cwKey2) {
		t.Fatal("key derivation not deterministic")
	}
}

func TestFinishedVerifyDataRoles(t *testing.T) {
	master := bytes.Repeat([]byte{0x66}, 48)
	hash := bytes.Repeat([]byte{0x77}, 48)
	mac := prfMAC(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, master)
	client := finishedVerifyData(mac, true, hash)
	server := finishedVerifyData(mac, false, hash)
	if len(client) != 12 || len(server) != 12 {
		t.Fatal("verify_data length wrong")
	}
	if bytes.Equal(client, server) {
		t.Fatal("client and server finished labels collide")
	}
}
