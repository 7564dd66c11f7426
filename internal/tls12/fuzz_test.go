package tls12

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzRecordHeader drives ParseRecordHeader — the first parser every
// wire byte meets, at endpoints and middlebox relays alike — with
// arbitrary headers. The invariants: never panic, never accept a
// header that violates the record grammar, classify every rejection as
// a typed AlertError (so the failure-path machinery in internal/core
// can turn it into the right alert), and round-trip every accepted
// header through RawRecord framing unchanged.
func FuzzRecordHeader(f *testing.F) {
	// One valid header per known content type, plus each rejection
	// class: short, unknown type, bad version, oversized body.
	for _, typ := range []ContentType{
		TypeChangeCipherSpec, TypeAlert, TypeHandshake, TypeApplicationData,
		TypeEncapsulated, TypeKeyMaterial, TypeMiddleboxAnnouncement,
	} {
		f.Add([]byte{byte(typ), 0x03, 0x03, 0x01, 0x00})
	}
	f.Add([]byte{22, 0x03, 0x03, 0x40, 0x00}) // max plaintext-sized body
	f.Add([]byte{22, 0x03, 0x03, 0x48, 0x00}) // max ciphertext
	f.Add([]byte{22, 0x03, 0x03, 0x48, 0x01}) // one past max ciphertext
	f.Add([]byte{22, 0x03})                   // short header
	f.Add([]byte{0x00, 0x03, 0x03, 0x00, 0x00})
	f.Add([]byte{0xff, 0x03, 0x03, 0x00, 0x05})
	f.Add([]byte{22, 0x03, 0x01, 0x00, 0x00}) // TLS 1.0 version
	f.Add([]byte{22, 0xfe, 0xfd, 0x00, 0x10}) // DTLS version

	f.Fuzz(func(t *testing.T, hdr []byte) {
		typ, length, err := ParseRecordHeader(hdr)
		if err != nil {
			// Every rejection of a complete header must carry a typed
			// local AlertError, so a Conn can answer with the right
			// fatal alert before tearing down.
			if len(hdr) >= RecordHeaderLen {
				var ae *AlertError
				if !errors.As(err, &ae) {
					t.Fatalf("rejection without AlertError: %v", err)
				}
				if ae.Remote {
					t.Fatalf("local parse failure classified as remote alert: %v", err)
				}
				switch ae.Description {
				case AlertDecodeError, AlertProtocolVersion, AlertRecordOverflow:
				default:
					t.Fatalf("unexpected alert class %s for %v", ae.Description, hdr[:RecordHeaderLen])
				}
			}
			return
		}
		// Accepted: re-derive every grammar rule independently.
		if len(hdr) < RecordHeaderLen {
			t.Fatalf("accepted a %d-byte header", len(hdr))
		}
		if !isKnownType(typ) {
			t.Fatalf("accepted unknown content type %d", typ)
		}
		if ContentType(hdr[0]) != typ {
			t.Fatalf("type %d does not match wire byte %d", typ, hdr[0])
		}
		if v := binary.BigEndian.Uint16(hdr[1:3]); v != VersionTLS12 {
			t.Fatalf("accepted version %#04x", v)
		}
		if length < 0 || length > MaxCiphertext {
			t.Fatalf("accepted body length %d", length)
		}
		if length != int(binary.BigEndian.Uint16(hdr[3:5])) {
			t.Fatalf("length %d does not match wire bytes", length)
		}
		// Round trip: a RawRecord built from the parse must frame back
		// to the same header and reparse identically.
		wire := RawRecord{Type: typ, Payload: make([]byte, length)}.Marshal()
		if !bytes.Equal(wire[:RecordHeaderLen], hdr[:RecordHeaderLen]) {
			t.Fatalf("reframed header %v != original %v", wire[:RecordHeaderLen], hdr[:RecordHeaderLen])
		}
		typ2, length2, err := ParseRecordHeader(wire)
		if err != nil || typ2 != typ || length2 != length {
			t.Fatalf("reparse: typ=%v length=%d err=%v", typ2, length2, err)
		}
	})
}

// chunkReader delivers its stream in fixed-size chunks of at most n
// bytes per Read, forcing the maximally fragmented delivery a TCP
// transport is allowed to produce (the transport Conn contract
// guarantees only stream semantics, down to 1-byte reads).
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// drainRecords parses records off r until a terminal error, returning
// the records plus the error that ended the stream.
func drainRecords(r io.Reader) ([]RawRecord, error) {
	var recs []RawRecord
	for {
		rec, err := ReadRawRecord(r)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// fuzzErrKey collapses a terminal error to its identity class so the
// differential check can demand sameness without demanding pointer
// equality: a given byte stream must end the same way no matter how
// the transport segmented it.
func fuzzErrKey(err error) string {
	var ae *AlertError
	switch {
	case err == nil:
		return "nil"
	case errors.As(err, &ae):
		return "alert:" + ae.Description.String()
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected_eof"
	case errors.Is(err, io.EOF):
		return "eof"
	default:
		return err.Error()
	}
}

// FuzzRecordReader is the differential segmentation fuzzer: an
// arbitrary byte stream is parsed as a record sequence twice — once
// from a whole-stream reader, once through a chunkReader delivering at
// most 1..32 bytes per Read — and both passes must produce identical
// records and the same terminal error. Any divergence means record
// parsing depends on delivery segmentation, which the transport
// contract forbids. Accepted records must also re-marshal to exactly
// the bytes they were parsed from.
func FuzzRecordReader(f *testing.F) {
	// Seeds: multi-record streams, every truncation position class,
	// header-grammar rejections mid-stream, and the empty stream.
	valid := RawRecord{Type: TypeHandshake, Payload: []byte{1, 0, 0, 0}}.Marshal()
	two := append(RawRecord{Type: TypeAlert, Payload: []byte{2, 40}}.Marshal(),
		RawRecord{Type: TypeApplicationData, Payload: []byte("hello")}.Marshal()...)
	f.Add([]byte{}, byte(1))
	f.Add(valid, byte(1))
	f.Add(two, byte(3))
	f.Add(two[:len(two)-3], byte(2))          // truncated mid-body
	f.Add(valid[:3], byte(1))                 // truncated mid-header
	f.Add([]byte{22, 3, 3, 0x48, 1}, byte(1)) // oversize length
	f.Add([]byte{22, 3, 1, 0, 0}, byte(4))    // bad version mid-grammar
	f.Add(append(append([]byte{}, valid...), 0xff, 3, 3, 0, 0), byte(5))

	f.Fuzz(func(t *testing.T, stream []byte, chunk byte) {
		want, wantErr := drainRecords(bytes.NewReader(stream))
		size := int(chunk)%32 + 1
		got, gotErr := drainRecords(&chunkReader{data: stream, n: size})

		if fuzzErrKey(gotErr) != fuzzErrKey(wantErr) {
			t.Fatalf("terminal error diverged under %d-byte chunks: whole=%v chunked=%v",
				size, wantErr, gotErr)
		}
		if len(got) != len(want) {
			t.Fatalf("record count diverged under %d-byte chunks: whole=%d chunked=%d",
				size, len(want), len(got))
		}
		offset := 0
		for i := range want {
			if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d diverged under %d-byte chunks", i, size)
			}
			// Re-marshaling must reproduce the exact wire bytes the
			// record was parsed from.
			wire := want[i].Marshal()
			if !bytes.Equal(wire, stream[offset:offset+len(wire)]) {
				t.Fatalf("record %d does not round-trip to its wire form", i)
			}
			offset += len(wire)
		}
	})
}

// splitAll drives SplitHandshakeMsg the way every reassembler does:
// feed handshake bytes in chunks of at most n, take each message as
// soon as it is complete, stop at the first error.
func splitAll(stream []byte, n int) (msgs [][]byte, held int, err error) {
	var buf []byte
	for {
		msg, err := SplitHandshakeMsg(buf)
		switch {
		case err != nil:
			return msgs, len(buf), err
		case msg != nil:
			msgs = append(msgs, append([]byte(nil), msg...))
			buf = buf[len(msg):]
		case len(stream) == 0:
			return msgs, len(buf), nil
		default:
			if n > len(stream) {
				n = len(stream)
			}
			buf, stream = append(buf, stream[:n]...), stream[n:]
		}
	}
}

// FuzzHandshakeReassembly is FuzzRecordReader one layer up: an arbitrary
// handshake byte stream reassembles to the same messages and the same
// terminal error however it was segmented, the messages concatenate
// back to the bytes they came from, and a header announcing more than
// maxHandshakeMsg is refused once its four bytes are in — the
// reassembler never holds more than one legal message plus a chunk.
func FuzzHandshakeReassembly(f *testing.F) {
	hello := handshakeHeader(TypeClientHello, bytes.Repeat([]byte{7}, 70))
	f.Add([]byte{}, byte(0))
	f.Add(hello, byte(0))
	f.Add(append(append([]byte{}, hello...), hello...), byte(6))
	f.Add(hello[:len(hello)-1], byte(3))                                       // truncated body
	f.Add([]byte{1, 0, 0}, byte(0))                                            // truncated header
	f.Add(handshakeHeader(TypeServerHelloDone, nil), byte(1))                  // empty body
	f.Add(append([]byte{1, 0xFF, 0xFF, 0xFF}, make([]byte, 100)...), byte(30)) // the 16 MiB announcement
	f.Add(append(append([]byte{}, hello...), 11, 0x01, 0x00, 0x01), byte(2))   // one past the limit, mid-stream

	f.Fuzz(func(t *testing.T, stream []byte, chunk byte) {
		size := int(chunk)%32 + 1
		want, _, wantErr := splitAll(stream, len(stream)+1)
		got, held, gotErr := splitAll(stream, size)
		if fuzzErrKey(gotErr) != fuzzErrKey(wantErr) || len(got) != len(want) {
			t.Fatalf("%d-byte chunks: %d messages / %v, whole stream %d / %v", size, len(got), gotErr, len(want), wantErr)
		}
		if held >= 4+maxHandshakeMsg+size {
			t.Fatalf("reassembler held %d bytes", held)
		}
		var ae *AlertError
		if gotErr != nil && (!errors.As(gotErr, &ae) || ae.Description != AlertDecodeError || ae.Remote) {
			t.Fatalf("refusal is not a local decode_error: %v", gotErr)
		}
		if joined := bytes.Join(got, nil); !bytes.HasPrefix(stream, joined) {
			t.Fatal("messages do not concatenate back to the stream")
		}
		for i, msg := range got {
			if !bytes.Equal(msg, want[i]) || len(msg) > 4+maxHandshakeMsg {
				t.Fatalf("message %d: %d bytes, whole-stream pass %d", i, len(msg), len(want[i]))
			}
		}
	})
}
