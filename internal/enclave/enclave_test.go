package enclave

import (
	"bytes"
	"crypto/ed25519"
	"testing"
	"time"
)

func mustAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustPlatform(t *testing.T, a *Authority) *Platform {
	t.Helper()
	p, err := a.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasurementDeterministic(t *testing.T) {
	img := CodeImage{Name: "proxy", Version: "1.0", Config: "strict"}
	if img.Measurement() != img.Measurement() {
		t.Fatal("measurement is not deterministic")
	}
	variants := []CodeImage{
		{Name: "proxy2", Version: "1.0", Config: "strict"},
		{Name: "proxy", Version: "1.1", Config: "strict"},
		{Name: "proxy", Version: "1.0", Config: "lax"},
		// Field-boundary confusion must change the measurement.
		{Name: "proxy1", Version: ".0", Config: "strict"},
	}
	for _, v := range variants {
		if v.Measurement() == img.Measurement() {
			t.Fatalf("distinct image %+v measured identically", v)
		}
	}
}

// verifyQuote checks q the way a client does: through a Verifier with
// no measurement policy.
func verifyQuote(q *Quote, authority ed25519.PublicKey, reportData []byte) error {
	return (&Verifier{Authority: authority}).VerifyQuote(q.Marshal(), reportData)
}

func TestQuoteRoundTripAndVerify(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	img := CodeImage{Name: "proxy", Version: "1.0"}
	e := p.CreateEnclave(img)

	report := make([]byte, ReportDataLen)
	copy(report, []byte("handshake transcript hash"))
	var q *Quote
	var err error
	e.Enter(func(mem Memory) { q, err = mem.Quote(report) })
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := ParseQuote(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Measurement != img.Measurement() {
		t.Fatal("measurement corrupted in transit")
	}
	if err := verifyQuote(parsed, a.PublicKey(), report); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
}

func TestQuoteRejections(t *testing.T) {
	a := mustAuthority(t)
	other := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "proxy", Version: "1.0"})

	report := make([]byte, ReportDataLen)
	var q *Quote
	e.Enter(func(mem Memory) { q, _ = mem.Quote(report) })

	// Wrong authority: the platform key is not endorsed.
	if err := verifyQuote(q, other.PublicKey(), report); err == nil {
		t.Fatal("quote verified against the wrong authority")
	}
	// Wrong report data: stale/replayed quote.
	badReport := make([]byte, ReportDataLen)
	badReport[0] = 1
	if err := verifyQuote(q, a.PublicKey(), badReport); err == nil {
		t.Fatal("quote verified against different report data")
	}
	// Tampered measurement: the platform signature breaks.
	tampered := *q
	tampered.Measurement[0] ^= 0xFF
	if err := verifyQuote(&tampered, a.PublicKey(), report); err == nil {
		t.Fatal("tampered measurement verified")
	}
	// Tampered signature.
	tampered = *q
	tampered.Signature = append([]byte(nil), q.Signature...)
	tampered.Signature[0] ^= 1
	if err := verifyQuote(&tampered, a.PublicKey(), report); err == nil {
		t.Fatal("tampered signature verified")
	}
	// Forged endorsement from a rogue "platform".
	rogue := mustPlatform(t, other)
	forged := *q
	forged.PlatformKey = rogue.quotePub
	forged.Endorsement = rogue.endorsement
	if err := verifyQuote(&forged, a.PublicKey(), report); err == nil {
		t.Fatal("quote with foreign platform key verified")
	}
}

func TestQuoteWrongReportLength(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "x"})
	var err error
	e.Enter(func(mem Memory) { _, err = mem.Quote([]byte("short")) })
	if err == nil {
		t.Fatal("short report data accepted")
	}
}

func TestVerifierPolicy(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	good := CodeImage{Name: "proxy", Version: "1.0"}
	bad := CodeImage{Name: "proxy", Version: "0.9-vulnerable"}
	report := make([]byte, ReportDataLen)

	quoteFor := func(img CodeImage) []byte {
		e := p.CreateEnclave(img)
		var q *Quote
		e.Enter(func(mem Memory) { q, _ = mem.Quote(report) })
		return q.Marshal()
	}

	v := &Verifier{Authority: a.PublicKey(), Allowed: []Measurement{good.Measurement()}}
	if err := v.VerifyQuote(quoteFor(good), report); err != nil {
		t.Fatalf("allowed measurement rejected: %v", err)
	}
	if err := v.VerifyQuote(quoteFor(bad), report); err == nil {
		t.Fatal("disallowed measurement accepted")
	}
	// Open policy: any genuine enclave.
	open := &Verifier{Authority: a.PublicKey()}
	if err := open.VerifyQuote(quoteFor(bad), report); err != nil {
		t.Fatalf("open policy rejected a genuine quote: %v", err)
	}
}

func TestEnclaveMemoryIsolation(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "x"})
	e.Enter(func(mem Memory) { mem.Put("key", []byte("secret")) })

	var got []byte
	e.Enter(func(mem Memory) { got, _ = mem.Get("key").([]byte) })
	if !bytes.Equal(got, []byte("secret")) {
		t.Fatal("enclave memory did not retain the value")
	}
	e.Enter(func(mem Memory) { mem.Delete("key") })
	e.Enter(func(mem Memory) {
		if mem.Get("key") != nil {
			t.Error("deleted key still present")
		}
	})
}

func TestTransitionsCounted(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "x"})
	before := e.Transitions()
	for i := 0; i < 5; i++ {
		e.Enter(func(Memory) {})
	}
	if got := e.Transitions() - before; got != 10 {
		t.Fatalf("5 Enters = %d transitions, want 10 (entry+exit each)", got)
	}
}

func TestBoundaryCostApplied(t *testing.T) {
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "x"})

	const rounds = 50
	start := time.Now()
	for i := 0; i < rounds; i++ {
		e.Enter(func(Memory) {})
	}
	free := time.Since(start)

	p.SetBoundaryCost(100 * time.Microsecond)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		e.Enter(func(Memory) {})
	}
	costly := time.Since(start)

	// 50 rounds × 2 crossings × 100µs = 10ms minimum extra.
	if costly-free < 5*time.Millisecond {
		t.Fatalf("boundary cost not applied: free=%v costly=%v", free, costly)
	}
}

func TestParseQuoteMalformed(t *testing.T) {
	if _, err := ParseQuote(nil); err == nil {
		t.Fatal("nil quote parsed")
	}
	if _, err := ParseQuote(bytes.Repeat([]byte{1}, 40)); err == nil {
		t.Fatal("truncated quote parsed")
	}
	// Trailing garbage after a valid quote must be rejected.
	a := mustAuthority(t)
	p := mustPlatform(t, a)
	e := p.CreateEnclave(CodeImage{Name: "x"})
	var q *Quote
	e.Enter(func(mem Memory) { q, _ = mem.Quote(make([]byte, ReportDataLen)) })
	if _, err := ParseQuote(append(q.Marshal(), 0xAA)); err == nil {
		t.Fatal("quote with trailing bytes parsed")
	}
}
