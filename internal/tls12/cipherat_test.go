package tls12

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"
)

// newTestCipherPair builds matching seal/open cipher states sharing one
// key and salt, starting at seq.
func newTestCipherPair(t *testing.T, seq uint64) (seal, open *CipherState) {
	t.Helper()
	key := make([]byte, 16)
	iv := make([]byte, 4)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	if _, err := rand.Read(iv); err != nil {
		t.Fatal(err)
	}
	seal, err := NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, key, iv, seq)
	if err != nil {
		t.Fatal(err)
	}
	open, err = NewCipherState(TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, key, iv, seq)
	if err != nil {
		t.Fatal(err)
	}
	return seal, open
}

// TestSealAppendAtMatchesSerial pins the explicit-sequence seal to the
// serial path byte for byte, across a range of sequence numbers and
// plaintext lengths (including empty).
func TestSealAppendAtMatchesSerial(t *testing.T) {
	serial, _ := newTestCipherPair(t, 7)
	parallel := *serial // same AEAD and salt, independent seq
	var sc CryptoScratch

	for i, n := range []int{0, 1, 13, 256, 16384} {
		pt := make([]byte, n)
		rand.Read(pt)
		seq := serial.Seq()
		want := serial.SealAppend(nil, TypeApplicationData, pt)
		got := parallel.SealAppendAt(&sc, nil, seq, TypeApplicationData, pt)
		if !bytes.Equal(want, got) {
			t.Fatalf("record %d: SealAppendAt output differs from SealAppend at seq %d", i, seq)
		}
		if parallel.Seq() != 7 {
			t.Fatalf("SealAppendAt advanced the cipher state sequence to %d", parallel.Seq())
		}
	}
}

// TestOpenInPlaceAtMatchesSerial checks that the explicit-sequence open
// accepts exactly what the serial open accepts, returns the same
// plaintext, and never advances the cipher state.
func TestOpenInPlaceAtMatchesSerial(t *testing.T) {
	seal, open := newTestCipherPair(t, 3)
	openAt := *open
	var sc CryptoScratch

	for i := 0; i < 5; i++ {
		pt := make([]byte, 64+i)
		rand.Read(pt)
		wire := seal.SealAppend(nil, TypeApplicationData, pt)

		seq := open.Seq()
		atCopy := append([]byte(nil), wire...)
		gotAt, err := openAt.OpenInPlaceAt(&sc, seq, TypeApplicationData, atCopy)
		if err != nil {
			t.Fatalf("record %d: OpenInPlaceAt: %v", i, err)
		}
		gotSerial, err := open.OpenInPlace(TypeApplicationData, wire)
		if err != nil {
			t.Fatalf("record %d: OpenInPlace: %v", i, err)
		}
		if !bytes.Equal(gotSerial, gotAt) || !bytes.Equal(pt, gotAt) {
			t.Fatalf("record %d: plaintext mismatch", i)
		}
		if openAt.Seq() != 3 {
			t.Fatalf("OpenInPlaceAt advanced the cipher state sequence to %d", openAt.Seq())
		}
	}

	// Wrong sequence number must fail (AAD mismatch), as must a
	// truncated payload.
	wire := seal.SealAppend(nil, TypeApplicationData, []byte("hello"))
	if _, err := openAt.OpenInPlaceAt(&sc, open.Seq()+1, TypeApplicationData, append([]byte(nil), wire...)); err == nil {
		t.Fatal("OpenInPlaceAt accepted a record at the wrong sequence number")
	}
	if _, err := openAt.OpenInPlaceAt(&sc, open.Seq(), TypeApplicationData, wire[:sealOverhead-1]); err == nil {
		t.Fatal("OpenInPlaceAt accepted a truncated payload")
	}
}

// TestExplicitSeqConcurrent hammers SealAppendAt/OpenInPlaceAt from many
// goroutines against one shared CipherState (distinct scratch each) and
// verifies every result against a serial reference. Run under -race
// this also proves the At variants touch no shared mutable state.
func TestExplicitSeqConcurrent(t *testing.T) {
	seal, open := newTestCipherPair(t, 0)
	ref := *seal // serial reference with its own seq

	const records = 64
	plains := make([][]byte, records)
	wants := make([][]byte, records)
	for i := range plains {
		plains[i] = make([]byte, 128+i)
		rand.Read(plains[i])
		wants[i] = ref.SealAppend(nil, TypeApplicationData, plains[i])
	}

	got := make([][]byte, records)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc CryptoScratch
			for i := w; i < records; i += 8 {
				got[i] = seal.SealAppendAt(&sc, nil, uint64(i), TypeApplicationData, plains[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], wants[i]) {
			t.Fatalf("record %d: concurrent SealAppendAt output differs from serial", i)
		}
	}

	// Concurrent opens of the serial outputs.
	var wg2 sync.WaitGroup
	errs := make([]error, records)
	for w := 0; w < 8; w++ {
		wg2.Add(1)
		go func(w int) {
			defer wg2.Done()
			var sc CryptoScratch
			for i := w; i < records; i += 8 {
				buf := append([]byte(nil), wants[i]...)
				pt, err := open.OpenInPlaceAt(&sc, uint64(i), TypeApplicationData, buf)
				if err == nil && !bytes.Equal(pt, plains[i]) {
					err = &AlertError{Description: AlertBadRecordMAC}
				}
				errs[i] = err
			}
		}(w)
	}
	wg2.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("record %d: concurrent OpenInPlaceAt: %v", i, err)
		}
	}
}
