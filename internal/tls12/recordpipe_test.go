package tls12

import (
	"bytes"
	"io"
	"testing"
)

// countingWriter records every Write call's bytes separately, so tests
// can assert how records were coalesced onto the transport.
type countingWriter struct {
	writes [][]byte
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

func (w *countingWriter) all() []byte {
	var out []byte
	for _, b := range w.writes {
		out = append(out, b...)
	}
	return out
}

// newRecordLayerRW pairs a reader with a writer; NewRecordLayer takes
// one stream for both.
func newRecordLayerRW(r io.Reader, w io.Writer) *RecordLayer {
	return &RecordLayer{r: r, w: w}
}

// readAllRecords decodes every record from a byte stream, optionally
// decrypting with open.
func readAllRecords(t *testing.T, data []byte, open *CipherState) []Record {
	t.Helper()
	rl := newRecordLayerRW(bytes.NewReader(data), io.Discard)
	if open != nil {
		rl.SetReadCipher(open)
	}
	var recs []Record
	for {
		rec, err := rl.ReadRecord()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(recs), err)
		}
		recs = append(recs, Record{Type: rec.Type, Payload: append([]byte(nil), rec.Payload...)})
	}
}

// TestWriteRecordFragmentBoundaries covers the exact fragmentation
// edges — empty, exactly maxPlaintext, and maxPlaintext+1 — in both
// plaintext and encrypted modes.
func TestWriteRecordFragmentBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		size      int
		wantRecs  int
		wantSizes []int
	}{
		{"empty", 0, 1, []int{0}},
		{"maxPlaintext", maxPlaintext, 1, []int{maxPlaintext}},
		{"maxPlaintextPlus1", maxPlaintext + 1, 2, []int{maxPlaintext, 1}},
	}
	for _, encrypted := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if encrypted {
				name += "/encrypted"
			}
			t.Run(name, func(t *testing.T) {
				payload := make([]byte, tc.size)
				for i := range payload {
					payload[i] = byte(i)
				}
				w := &countingWriter{}
				rl := newRecordLayerRW(bytes.NewReader(nil), w)
				var open *CipherState
				if encrypted {
					var seal *CipherState
					seal, open = testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
					rl.SetWriteCipher(seal)
				}
				if err := rl.WriteRecord(TypeApplicationData, payload); err != nil {
					t.Fatal(err)
				}
				recs := readAllRecords(t, w.all(), open)
				if len(recs) != tc.wantRecs {
					t.Fatalf("got %d records, want %d", len(recs), tc.wantRecs)
				}
				var got []byte
				for i, rec := range recs {
					if len(rec.Payload) != tc.wantSizes[i] {
						t.Fatalf("record %d is %d bytes, want %d", i, len(rec.Payload), tc.wantSizes[i])
					}
					got = append(got, rec.Payload...)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("fragmentation corrupted the payload")
				}
			})
		}
	}
}

// TestWriteRecordCoalescesFragments: when an oversized WriteRecord
// fragments and the tail fragment fits under the flush limit alongside
// its predecessor, both ship in a single transport write. Full-size
// fragments (16389 wire bytes) can never pair under the 18431-byte
// limit, so the small-tail case is the coalescing opportunity.
func TestWriteRecordCoalescesFragments(t *testing.T) {
	w := &countingWriter{}
	rl := newRecordLayerRW(bytes.NewReader(nil), w)
	payload := make([]byte, maxPlaintext+100) // fragments: 16384 + 100
	if err := rl.WriteRecord(TypeApplicationData, payload); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("got %d writes, want 1 (both fragments coalesced)", len(w.writes))
	}
	if len(w.writes[0]) > writeFlushLimit {
		t.Fatalf("write is %d bytes, exceeding the %d-byte flush limit", len(w.writes[0]), writeFlushLimit)
	}
	recs := readAllRecords(t, w.all(), nil)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if len(recs[0].Payload) != maxPlaintext || len(recs[1].Payload) != 100 {
		t.Fatalf("fragment sizes %d/%d, want %d/100", len(recs[0].Payload), len(recs[1].Payload), maxPlaintext)
	}
}

// TestSealAppendOpenInPlace: the allocation-free seal/open pair must
// round-trip through a shared buffer, with OpenInPlace aliasing its
// input.
func TestSealAppendOpenInPlace(t *testing.T) {
	seal, open := testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
	buf := make([]byte, 0, 4096)
	for round := 0; round < 5; round++ {
		msg := bytes.Repeat([]byte{byte('a' + round)}, 100*(round+1))
		buf = seal.SealAppend(buf[:0], TypeApplicationData, msg)
		if len(buf) != len(msg)+sealOverhead {
			t.Fatalf("sealed %d bytes into %d, want %d", len(msg), len(buf), len(msg)+sealOverhead)
		}
		plain, err := open.OpenInPlace(TypeApplicationData, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, msg) {
			t.Fatalf("round %d corrupted", round)
		}
		if &plain[0] != &buf[gcmExplicitNonceLen] {
			t.Fatal("OpenInPlace did not decrypt in place")
		}
	}
}

// TestOpenInPlaceFailureLeavesSeq: a failed in-place open must not
// advance the sequence number, so the next in-order record still opens.
func TestOpenInPlaceFailureLeavesSeq(t *testing.T) {
	seal, open := testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256)
	good := seal.Seal(TypeApplicationData, []byte("legit"))
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if _, err := open.OpenInPlace(TypeApplicationData, bad); err == nil {
		t.Fatal("tampered record accepted")
	}
	if _, err := open.OpenInPlace(TypeApplicationData, good); err != nil {
		t.Fatalf("in-order record rejected after failed open: %v", err)
	}
}

// TestOpenDoesNotDestroyInput: the non-in-place Open keeps the wire
// payload intact (mux and adversary code retain it).
func TestOpenDoesNotDestroyInput(t *testing.T) {
	seal, open := testCipherPair(t, TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
	sealed := seal.Seal(TypeApplicationData, []byte("payload"))
	orig := append([]byte(nil), sealed...)
	plain, err := open.OpenInPlace(TypeApplicationData, bytes.Clone(sealed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, orig) {
		t.Fatal("Open destroyed its input")
	}
	if len(plain) > 0 && len(sealed) > gcmExplicitNonceLen && &plain[0] == &sealed[gcmExplicitNonceLen] {
		t.Fatal("Open returned an aliasing slice")
	}
}

// TestRecordBufPool: pooled buffers have full record capacity and
// undersized buffers are rejected rather than pooled.
func TestRecordBufPool(t *testing.T) {
	b := GetRecordBuf()
	if len(b) != 0 || cap(b) < MaxRecordWireSize {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	PutRecordBuf(b)
	PutRecordBuf(make([]byte, 10)) // must not poison the pool
	b2 := GetRecordBuf()
	if cap(b2) < MaxRecordWireSize {
		t.Fatalf("pool returned undersized buffer: cap=%d", cap(b2))
	}
	PutRecordBuf(b2)
}
