package certs

import (
	"bytes"
	"crypto/ed25519"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzDelegationEvidence fuzzes the two proxysig blobs a peer hands
// over: the delegation warrant a middlebox parses (ParseDelegation) and
// the signed evidence an endpoint verifies (VerifyEvidence). Both sit
// behind an Ed25519 signature, so random bytes alone would only ever
// exercise the refusal; with sign set the harness treats the input as
// the unsigned body and signs it with the key the parser will check, so
// the field parsers run on mutated bodies too. Properties: never panic,
// never write to the input; an accepted blob re-marshals from its parsed
// fields to exactly the bytes given, and keeps no alias of them; a
// rejected one returns an error and no value. The seed corpus — valid
// blobs, truncations, length-field and version edits — runs under plain
// `go test`.
func FuzzDelegationEvidence(f *testing.F) {
	dk := &DelegationKey{priv: ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x5D}, ed25519.SeedSize))}
	dk.Pub = dk.priv.Public().(ed25519.PublicKey)
	mbPriv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x3B}, ed25519.SeedSize))
	mbPub := mbPriv.Public().(ed25519.PublicKey)

	issued := time.Unix(1_700_000_000, 0)
	warrant, err := dk.SignDelegation(mbPub, [32]byte{1, 2, 3}, issued, issued.Add(time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	evidence, err := SignEvidence(mbPriv, &Evidence{Delegation: warrant, C2SRecords: 7, S2CRecords: 9})
	if err != nil {
		f.Fatal(err)
	}
	body := func(signed []byte) []byte { return signed[:len(signed)-ed25519.SignatureSize] }
	edit := func(b []byte, off int, v ...byte) []byte {
		b = bytes.Clone(b)
		copy(b[off:], v)
		return b
	}
	for _, raw := range [][]byte{nil, warrant, evidence, warrant[:len(warrant)-1], evidence[:len(evidence)-1],
		warrant[:ed25519.SignatureSize], evidence[:ed25519.SignatureSize-1], append(bytes.Clone(warrant), 0)} {
		f.Add(raw, false)
	}
	for _, unsigned := range [][]byte{
		body(warrant), body(evidence),
		body(warrant)[:40], append(body(warrant), 0), // short and long bodies under a good signature
		edit(body(warrant), 0, 2), // version
		edit(body(warrant), 97, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),    // NotBefore past int64
		edit(body(warrant), 105, 0x80, 0, 0, 0, 0, 0, 0, 0),                        // NotAfter = min int64
		edit(body(evidence), 0, 0),                                                 // version
		edit(body(evidence), 1, 0x00, 0xB0),                                        // delegation one byte short: digests shift
		edit(body(evidence), 1, 0x00, 0xB2),                                        // one byte long
		edit(body(evidence), 1, 0xFF, 0xFF),                                        // longer than the blob
		append([]byte{delegationVersion, 0, 0}, make([]byte, 32+32+8+8)...),        // empty delegation
		append([]byte{delegationVersion, 0, 0}, make([]byte, 32+32+8+8+1)...),      // trailing byte
		body(evidence)[:len(body(evidence))-1], {delegationVersion}, {}, {0, 0, 0}, // truncations
	} {
		f.Add(unsigned, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, sign bool) {
		asWarrant, asEvidence := data, data
		if sign {
			w := bytes.Clone(data)
			if len(w) >= 1+ed25519.PublicKeySize {
				copy(w[1:], dk.Pub) // the warrant names the key that signs it
			}
			asWarrant = append(w, ed25519.Sign(dk.priv, w)...)
			asEvidence = append(bytes.Clone(data), ed25519.Sign(mbPriv, data)...)
		}

		in := bytes.Clone(asWarrant)
		d, err := ParseDelegation(in)
		if !bytes.Equal(in, asWarrant) {
			t.Fatal("ParseDelegation wrote to its input")
		}
		if err != nil {
			if d != nil {
				t.Fatalf("ParseDelegation rejected the input (%v) and still returned a warrant", err)
			}
		} else {
			b := wire.NewBuilder(nil)
			b.AddUint8(delegationVersion)
			b.AddBytes(d.DelegPub)
			b.AddBytes(d.Authorized)
			b.AddBytes(d.Binding[:])
			b.AddUint64(uint64(d.NotBefore.Unix()))
			b.AddUint64(uint64(d.NotAfter.Unix()))
			b.AddBytes(in[len(in)-ed25519.SignatureSize:])
			if !bytes.Equal(b.Bytes(), in) || !bytes.Equal(d.Raw, in) {
				t.Fatalf("accepted warrant does not re-marshal to the %d bytes parsed", len(in))
			}
			in[0] ^= 0xFF
			if d.Raw[0] == in[0] {
				t.Fatal("Delegation.Raw aliases the caller's buffer")
			}
			d.ValidAt(issued) //nolint:errcheck // must not panic on any window
		}

		in = bytes.Clone(asEvidence)
		ev, err := VerifyEvidence(mbPub, in)
		if !bytes.Equal(in, asEvidence) {
			t.Fatal("VerifyEvidence wrote to its input")
		}
		if err != nil {
			if ev != nil {
				t.Fatalf("VerifyEvidence rejected the input (%v) and still returned evidence", err)
			}
			return
		}
		again := append(ev.payload(), in[len(in)-ed25519.SignatureSize:]...)
		if !bytes.Equal(again, in) {
			t.Fatalf("accepted evidence re-marshals to %d bytes, parsed from %d", len(again), len(in))
		}
		if len(ev.Delegation) > 0 {
			in[3] ^= 0xFF
			if ev.Delegation[0] == in[3] {
				t.Fatal("Evidence.Delegation aliases the caller's buffer")
			}
		}
	})
}
