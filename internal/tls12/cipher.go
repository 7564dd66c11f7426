package tls12

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// Suite key-material geometry. Both supported suites are AES-GCM with a
// 4-byte implicit nonce salt and an 8-byte explicit nonce (RFC 5288).
const (
	gcmImplicitNonceLen = 4
	gcmExplicitNonceLen = 8
	gcmTagLen           = 16
)

// sealOverhead is the number of bytes sealing adds to a plaintext:
// explicit nonce plus AEAD tag.
const sealOverhead = gcmExplicitNonceLen + gcmTagLen

// suiteKeyLen returns the AEAD key length for a cipher suite.
func suiteKeyLen(suiteID uint16) (int, error) {
	switch suiteID {
	case TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256:
		return 16, nil
	case TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384:
		return 32, nil
	}
	return 0, fmt.Errorf("tls12: unsupported cipher suite 0x%04X", suiteID)
}

// suiteIVLen returns the implicit-IV length for a cipher suite.
func suiteIVLen(suiteID uint16) int { return gcmImplicitNonceLen }

// CipherState holds one direction of record protection: an AES-GCM AEAD,
// the 4-byte implicit nonce salt, and the 64-bit record sequence number.
// mbTLS exposes it because per-hop keys (paper §3.4, Figure 4) are
// installed directly into record layers at arbitrary starting sequence
// numbers carried by MBTLSKeyMaterial messages.
//
// A CipherState is not safe for concurrent use: sealing and opening
// advance the sequence number and share scratch buffers. Each user (a
// record layer direction, a data-plane hop) must drive it from one
// goroutine at a time, which the record layer's I/O mutexes and the
// relay's one-goroutine-per-direction structure guarantee.
type CipherState struct {
	aead cipher.AEAD
	seq  uint64

	// salt is the 4-byte implicit nonce part, fixed at construction and
	// never written afterwards: the explicit-sequence variants
	// (OpenInPlaceAt, SealAppendAt) read it concurrently.
	salt [gcmImplicitNonceLen]byte

	// scratch serves the serial path (SealAppend, OpenInPlace), so the
	// steady-state seal/open paths allocate nothing.
	scratch CryptoScratch
}

// NewCipherState builds a CipherState for the given suite from raw key
// material. key must be the suite's key length and iv the 4-byte
// implicit salt. seq is the starting record sequence number.
func NewCipherState(suiteID uint16, key, iv []byte, seq uint64) (*CipherState, error) {
	keyLen, err := suiteKeyLen(suiteID)
	if err != nil {
		return nil, err
	}
	if len(key) != keyLen {
		return nil, fmt.Errorf("tls12: suite %s needs %d-byte key, got %d", CipherSuiteName(suiteID), keyLen, len(key))
	}
	if len(iv) != gcmImplicitNonceLen {
		return nil, fmt.Errorf("tls12: need %d-byte implicit IV, got %d", gcmImplicitNonceLen, len(iv))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	cs := &CipherState{aead: aead, seq: seq}
	copy(cs.salt[:], iv)
	return cs, nil
}

// Seq returns the next record sequence number to be used.
func (cs *CipherState) Seq() uint64 { return cs.seq }

// SealAppend encrypts a record payload and appends its wire form —
// explicit_nonce(8) || ciphertext || tag — to dst, advancing the
// sequence number. When dst has sufficient capacity the call performs
// zero allocations; dst must not overlap plaintext. The explicit nonce
// is the sequence number, as TLS implementations conventionally do.
func (cs *CipherState) SealAppend(dst []byte, typ ContentType, plaintext []byte) []byte {
	dst = cs.SealAppendAt(&cs.scratch, dst, cs.seq, typ, plaintext)
	cs.seq++
	return dst
}

// Seal encrypts a record payload into a freshly allocated buffer. It is
// SealAppend without buffer reuse, kept for callers off the hot path.
func (cs *CipherState) Seal(typ ContentType, plaintext []byte) []byte {
	return cs.SealAppend(make([]byte, 0, len(plaintext)+sealOverhead), typ, plaintext)
}

// OpenInPlace decrypts a record payload in wire form, reusing payload's
// own storage for the plaintext (the returned slice aliases payload).
// On success the sequence number advances; on failure it is unchanged,
// an error is returned, and payload's contents are destroyed — the
// connection must be torn down with a bad_record_mac alert (this is
// what enforces path integrity, paper P4), so the clobbered buffer is
// never observed.
func (cs *CipherState) OpenInPlace(typ ContentType, payload []byte) ([]byte, error) {
	plaintext, err := cs.OpenInPlaceAt(&cs.scratch, cs.seq, typ, payload)
	if err != nil {
		return nil, err
	}
	cs.seq++
	return plaintext, nil
}

// CryptoScratch holds the nonce and associated-data buffers of one
// seal or open call. The serial path uses the CipherState's own; each
// pipeline worker owns one heap-resident scratch for the
// explicit-sequence variants: arrays declared on the stack would escape
// through the cipher.AEAD interface call and cost an allocation per
// record.
type CryptoScratch struct {
	nonceBuf [gcmImplicitNonceLen + gcmExplicitNonceLen]byte
	adBuf    [13]byte
}

// additionalDataAt fills the scratch's AEAD associated data:
// seq(8) || type(1) || version(2) || plaintext length(2), RFC 5246 §6.2.3.3.
func additionalDataAt(sc *CryptoScratch, seq uint64, typ ContentType, plaintextLen int) []byte {
	binary.BigEndian.PutUint64(sc.adBuf[:8], seq)
	sc.adBuf[8] = byte(typ)
	binary.BigEndian.PutUint16(sc.adBuf[9:11], VersionTLS12)
	binary.BigEndian.PutUint16(sc.adBuf[11:13], uint16(plaintextLen))
	return sc.adBuf[:]
}

// SealAppendAt is SealAppend at an explicit sequence number, using
// caller-owned scratch and leaving the CipherState's own sequence
// untouched. It reads only the AEAD and the immutable salt, so
// any number of SealAppendAt/OpenInPlaceAt calls (with distinct scratch)
// may run concurrently with each other. The caller owns the sequence
// space: the relay's commit gate hands each position out once. Output
// is byte-identical to SealAppend at the same sequence number.
func (cs *CipherState) SealAppendAt(sc *CryptoScratch, dst []byte, seq uint64, typ ContentType, plaintext []byte) []byte {
	copy(sc.nonceBuf[:gcmImplicitNonceLen], cs.salt[:])
	binary.BigEndian.PutUint64(sc.nonceBuf[gcmImplicitNonceLen:], seq)
	dst = append(dst, sc.nonceBuf[gcmImplicitNonceLen:]...)
	return cs.aead.Seal(dst, sc.nonceBuf[:], plaintext, additionalDataAt(sc, seq, typ, len(plaintext)))
}

// OpenInPlaceAt is OpenInPlace at an explicit sequence number, using
// caller-owned scratch. The CipherState's own sequence is never
// consulted or advanced — success and failure are reported identically,
// and the caller's reservation discipline decides what a failure means
// for the stream. The same concurrency contract as SealAppendAt
// applies.
func (cs *CipherState) OpenInPlaceAt(sc *CryptoScratch, seq uint64, typ ContentType, payload []byte) ([]byte, error) {
	if len(payload) < sealOverhead {
		return nil, &AlertError{Description: AlertBadRecordMAC}
	}
	copy(sc.nonceBuf[:gcmImplicitNonceLen], cs.salt[:])
	copy(sc.nonceBuf[gcmImplicitNonceLen:], payload[:gcmExplicitNonceLen])
	ciphertext := payload[gcmExplicitNonceLen:]
	plaintextLen := len(ciphertext) - gcmTagLen
	plaintext, err := cs.aead.Open(ciphertext[:0], sc.nonceBuf[:], ciphertext, additionalDataAt(sc, seq, typ, plaintextLen))
	if err != nil {
		return nil, &AlertError{Description: AlertBadRecordMAC}
	}
	return plaintext, nil
}
