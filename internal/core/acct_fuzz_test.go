package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/tls12"
)

// FuzzAcctPayloads fuzzes the two parsers that read an MBTLSKeyMaterial
// record's payload — bytes the peer at the other end of a secondary
// session controls: parseAcctFrame (the 0xAC01–0xAC04 accountability
// frames) and parseKeyMaterial. Neither may panic or touch its input;
// what one accepts re-marshals to exactly the bytes it was given (no
// trailing bytes, no second encoding of one value); what one rejects
// comes back as an error and nothing else — no half-filled KeyMaterial
// for a caller to install by mistake. The seeds are a valid payload of
// each kind plus truncations and length-field edits of them; they run
// under plain `go test`.
func FuzzAcctPayloads(f *testing.F) {
	km := KeyMaterial{Version: tls12.VersionTLS12}
	for _, hop := range []*HopKeys{&km.Down, &km.Up} {
		hk, err := GenerateHopKeys(tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384)
		if err != nil {
			f.Fatal(err)
		}
		*hop = *hk
	}
	keys := km.marshal()
	frame := acctFrame(acctFrameDelegation, bytes.Repeat([]byte{0xD1}, 137))
	// edit returns b with the big-endian integer at off replaced.
	edit := func(b []byte, off, width int, v uint64) []byte {
		b = bytes.Clone(b)
		var be [8]byte
		binary.BigEndian.PutUint64(be[:], v)
		copy(b[off:off+width], be[8-width:])
		return b
	}
	for _, seed := range [][]byte{
		nil,
		keys,
		frame,
		acctFrame(acctFrameAck, nil),
		acctFrame(acctFrameEvidenceReq, nil),
		acctFrame(acctFrameEvidence, make([]byte, 0xFFFF)),
		keys[:len(keys)-1], keys[:12], keys[:3], append(bytes.Clone(keys), 0),
		frame[:len(frame)-1], frame[:3], frame[:1], append(bytes.Clone(frame), 0),
		edit(keys, 4, 4, 33),         // key length one more than the bytes carry
		edit(keys, 4, 4, 65),         // past the geometry bound
		edit(keys, 4, 4, 0xFFFFFFFF), // an allocation the parser must refuse
		edit(keys, 8, 4, 17),
		edit(keys, 4, 4, 0),
		edit(frame, 2, 2, 136), // body shorter than the frame: trailing byte
		edit(frame, 2, 2, 138), // body longer than the frame
		edit(frame, 2, 2, 0xFFFF),
		// Forty bytes of "frame body" that are also a zero-geometry key
		// material: both parsers accept it, each round-trips it.
		append([]byte{0xAC, 0x01, 0x00, 0x28}, make([]byte, 40)...),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)

		kind, body, err := parseAcctFrame(data)
		if err != nil {
			if kind != 0 || body != nil {
				t.Fatalf("parseAcctFrame rejected the input (%v) and still returned kind %#x, %d body bytes", err, kind, len(body))
			}
		} else if again := acctFrame(kind, body); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-marshals to %d bytes %x, parsed from %d bytes %x", len(again), again, len(data), data)
		}

		parsed, err := parseKeyMaterial(data)
		if err != nil {
			if parsed != nil {
				t.Fatalf("parseKeyMaterial rejected the input (%v) and still returned a value", err)
			}
		} else {
			if again := parsed.marshal(); !bytes.Equal(again, data) {
				t.Fatalf("accepted key material re-marshals to %d bytes, parsed from %d", len(again), len(data))
			}
			for _, hop := range []*HopKeys{&parsed.Down, &parsed.Up} {
				if len(hop.C2SKey) > 64 || len(hop.C2SIV) > 16 || len(hop.S2CKey) != len(hop.C2SKey) || len(hop.S2CIV) != len(hop.C2SIV) {
					t.Fatalf("accepted key material with geometry %d/%d/%d/%d", len(hop.C2SKey), len(hop.C2SIV), len(hop.S2CKey), len(hop.S2CIV))
				}
			}
		}

		if !bytes.Equal(data, before) {
			t.Fatal("a parser wrote to its input")
		}
	})
}
