package tls12

import (
	"bytes"
	"crypto/rand"
	"io"
	"testing"
	"testing/quick"
)

func testCipherPair(t *testing.T, suite uint16) (*CipherState, *CipherState) {
	t.Helper()
	keyLen, err := suiteKeyLen(suite)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, keyLen)
	iv := make([]byte, 4)
	io.ReadFull(rand.Reader, key) //nolint:errcheck
	io.ReadFull(rand.Reader, iv)  //nolint:errcheck
	seal, err := NewCipherState(suite, key, iv, 0)
	if err != nil {
		t.Fatal(err)
	}
	open, err := NewCipherState(suite, key, iv, 0)
	if err != nil {
		t.Fatal(err)
	}
	return seal, open
}

// TestPropertyCipherRoundTrip: Seal→Open is the identity for arbitrary
// payloads under both suites.
func TestPropertyCipherRoundTrip(t *testing.T) {
	for _, suite := range []uint16{
		TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
	} {
		seal, open := testCipherPair(t, suite)
		f := func(payload []byte) bool {
			sealed := seal.Seal(TypeApplicationData, payload)
			plain, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(sealed))
			return err == nil && bytes.Equal(plain, payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", CipherSuiteName(suite), err)
		}
	}
}

// TestPropertyCipherTamperDetected: flipping any single byte of a
// sealed record makes Open fail.
func TestPropertyCipherTamperDetected(t *testing.T) {
	payload := []byte("a payload worth protecting")
	keyLen, _ := suiteKeyLen(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
	key := make([]byte, keyLen)
	iv := make([]byte, 4)
	sealer, _ := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, key, iv, 0)
	sealed := sealer.Seal(TypeApplicationData, payload)
	for i := range sealed {
		opener, _ := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, key, iv, 0)
		tampered := append([]byte(nil), sealed...)
		tampered[i] ^= 0x01
		if _, err := opener.OpenInPlace(TypeApplicationData, bytes.Clone(tampered)); err == nil {
			t.Fatalf("byte %d flip went undetected", i)
		}
	}
}

func TestCipherSequenceBinding(t *testing.T) {
	seal, open := testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
	r1 := seal.Seal(TypeApplicationData, []byte("first"))
	r2 := seal.Seal(TypeApplicationData, []byte("second"))
	// Delivering r2 before r1 must fail: the AAD binds seq numbers.
	if _, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(r2)); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	// The failed Open must not advance state: r1 then r2 still works.
	if _, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(r1)); err != nil {
		t.Fatalf("in-order record rejected after failed attempt: %v", err)
	}
	if _, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(r2)); err != nil {
		t.Fatalf("second record rejected: %v", err)
	}
	// Replay of r2 fails.
	if _, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(r2)); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestCipherTypeBinding(t *testing.T) {
	seal, open := testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256)
	sealed := seal.Seal(TypeApplicationData, []byte("data"))
	// Re-labeling the record as an alert must fail: AAD binds the type.
	if _, err := open.OpenInPlace(TypeAlert, bytes.Clone(sealed)); err == nil {
		t.Fatal("type confusion accepted")
	}
}

func TestCipherStateValidation(t *testing.T) {
	if _, err := NewCipherState(0x9999, make([]byte, 32), make([]byte, 4), 0); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if _, err := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, make([]byte, 16), make([]byte, 4), 0); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, make([]byte, 32), make([]byte, 12), 0); err == nil {
		t.Fatal("wrong IV length accepted")
	}
}

// pipeRW is a minimal in-memory duplex for record-layer tests.
type pipeRW struct {
	buf bytes.Buffer
}

func (p *pipeRW) Read(b []byte) (int, error)  { return p.buf.Read(b) }
func (p *pipeRW) Write(b []byte) (int, error) { return p.buf.Write(b) }

func TestRecordLayerPlaintextRoundTrip(t *testing.T) {
	rw := &pipeRW{}
	rl := NewRecordLayer(rw)
	if err := rl.WriteRecord(TypeHandshake, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	rec, err := rl.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != TypeHandshake || string(rec.Payload) != "hello" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestRecordLayerFragmentsLargeWrites(t *testing.T) {
	rw := &pipeRW{}
	rl := NewRecordLayer(rw)
	payload := make([]byte, 3*maxPlaintext+100)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := rl.WriteRecord(TypeApplicationData, payload); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := 0; i < 4; i++ {
		rec, err := rl.ReadRecord()
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if len(rec.Payload) > maxPlaintext {
			t.Fatalf("fragment %d oversized: %d", i, len(rec.Payload))
		}
		got = append(got, rec.Payload...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmentation corrupted the payload")
	}
}

func TestRecordLayerEncryptedRoundTrip(t *testing.T) {
	rw := &pipeRW{}
	sender := NewRecordLayer(rw)
	receiver := newRecordLayerRW(rw, io.Discard)

	key := make([]byte, 32)
	iv := make([]byte, 4)
	sealCS, _ := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, key, iv, 0)
	openCS, _ := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, key, iv, 0)
	sender.SetWriteCipher(sealCS)
	receiver.SetReadCipher(openCS)

	if err := sender.WriteRecord(TypeApplicationData, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	rec, err := receiver.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Payload) != "secret" {
		t.Fatalf("payload = %q", rec.Payload)
	}
}

// TestRecordLayerBypassTypes: Encapsulated and announcement records
// skip record protection even with active ciphers (middleboxes must be
// able to read them before keys exist).
func TestRecordLayerBypassTypes(t *testing.T) {
	rw := &pipeRW{}
	sender := NewRecordLayer(rw)
	key := make([]byte, 32)
	iv := make([]byte, 4)
	cs, _ := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, key, iv, 0)
	sender.SetWriteCipher(cs)

	inner := []byte{5, 1, 2, 3}
	if err := sender.WriteRecord(TypeEncapsulated, inner); err != nil {
		t.Fatal(err)
	}
	raw, err := ReadRawRecord(rw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Payload, inner) {
		t.Fatal("Encapsulated record was encrypted")
	}
	// KeyMaterial, by contrast, IS protected (it carries hop keys).
	if err := sender.WriteRecord(TypeKeyMaterial, []byte("keys")); err != nil {
		t.Fatal(err)
	}
	raw, err = ReadRawRecord(rw)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw.Payload, []byte("keys")) {
		t.Fatal("KeyMaterial record was sent unprotected")
	}
}

func TestRecordLayerRejectsGarbage(t *testing.T) {
	rw := &pipeRW{}
	rw.Write([]byte{0x99, 0x03, 0x03, 0x00, 0x01, 0x00}) //nolint:errcheck
	rl := NewRecordLayer(rw)
	if _, err := rl.ReadRecord(); err == nil {
		t.Fatal("unknown record type accepted")
	}

	rw2 := &pipeRW{}
	rw2.Write([]byte{0x16, 0x02, 0x00, 0x00, 0x01, 0x00}) //nolint:errcheck
	rl2 := NewRecordLayer(rw2)
	if _, err := rl2.ReadRecord(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestRawRecordMarshalRoundTrip(t *testing.T) {
	f := func(typ uint8, payload []byte) bool {
		ct := ContentType(20 + typ%4) // a standard type
		if len(payload) > maxCiphertext {
			payload = payload[:maxCiphertext]
		}
		rec := RawRecord{Type: ct, Payload: payload}
		got, err := ReadRawRecord(bytes.NewReader(rec.Marshal()))
		return err == nil && got.Type == ct && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
