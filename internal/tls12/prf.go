package tls12

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"hash"
	"sync"

	"repro/internal/secmem"
)

// PRF labels from RFC 5246 §8.1 and §7.4.9.
const (
	labelMasterSecret   = "master secret"
	labelKeyExpansion   = "key expansion"
	labelClientFinished = "client finished"
	labelServerFinished = "server finished"
)

// masterSecretLen is the fixed length of a TLS 1.2 master secret.
const masterSecretLen = 48

// finishedVerifyLen is the length of the Finished verify_data.
const finishedVerifyLen = 12

// pHash implements P_hash from RFC 5246 §5: an HMAC expansion over
// seed, writing len(result) bytes into result. mac is an HMAC keyed
// with the secret; it is reset first, so one keyed HMAC serves every
// expansion of the same secret. scratch, of at least twice mac's size,
// takes each A(i) and output block, so no HMAC sum allocates.
func pHash(mac hash.Hash, result, seed, scratch []byte) {
	// A(0) = seed, A(i) = HMAC(A(i-1)); block i is HMAC(A(i) || seed).
	size := mac.Size()
	aBuf, block := scratch[:0:size], scratch[size:size:2*size]
	a := seed
	for off := 0; off < len(result); {
		mac.Reset()
		mac.Write(a)
		a = mac.Sum(aBuf)

		mac.Reset()
		mac.Write(a)
		mac.Write(seed)
		off += copy(result[off:], mac.Sum(block))
	}
}

// prfScratchLen fits every PRF the handshake runs: the longest label
// (15 bytes) and seed (two randoms, 64), then two SHA-384 blocks.
const prfScratchLen = 15 + 64 + 2*sha512.Size384

// prfScratch recycles prf's working memory; it holds array pointers, so
// a Put allocates nothing.
var prfScratch = sync.Pool{New: func() any { return new([prfScratchLen]byte) }}

// prf computes the TLS 1.2 PRF of the secret mac is keyed with (see
// prfMAC) over label and the concatenated seed parts, filling result.
// label‖seed and pHash's scratch share one pooled buffer, wiped before
// it goes back (its blocks are the PRF's output).
func prf(mac hash.Hash, result []byte, label string, seed ...[]byte) {
	n := len(label)
	for _, part := range seed {
		n += len(part)
	}
	pooled := prfScratch.Get().(*[prfScratchLen]byte)
	defer prfScratch.Put(pooled)
	buf := pooled[:]
	if n+2*mac.Size() > len(buf) {
		buf = make([]byte, n+2*mac.Size())
	}
	off := copy(buf, label)
	for _, part := range seed {
		off += copy(buf[off:], part)
	}
	pHash(mac, result, buf[:n], buf[n:])
	secmem.Wipe(buf)
}

// suitePRFHash returns the hash constructor used by the suite's PRF
// (SHA-256 for the AES-128 suite, SHA-384 for AES-256, per RFC 5289).
func suitePRFHash(suiteID uint16) func() hash.Hash {
	if suiteID == TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384 {
		return sha512.New384
	}
	return sha256.New
}

// prfMAC keys the suite's PRF HMAC with secret. The HMAC holds the
// padded key, so its owner drops it with the secret.
func prfMAC(suiteID uint16, secret []byte) hash.Hash {
	return hmac.New(suitePRFHash(suiteID), secret)
}

// computeMasterSecret derives the 48-byte master secret from the ECDHE
// pre-master secret and the session randoms (RFC 5246 §8.1).
func computeMasterSecret(suiteID uint16, preMaster, clientRandom, serverRandom []byte) []byte {
	master := make([]byte, masterSecretLen)
	prf(prfMAC(suiteID, preMaster), master, labelMasterSecret, clientRandom, serverRandom)
	return master
}

// keyBlock derives n bytes of key material with the master-keyed mac
// (RFC 5246 §6.3; note the server_random || client_random seed order).
func keyBlock(mac hash.Hash, clientRandom, serverRandom []byte, n int) []byte {
	kb := make([]byte, n)
	prf(mac, kb, labelKeyExpansion, serverRandom, clientRandom)
	return kb
}

// finishedVerifyData computes the 12-byte Finished verify_data over the
// transcript hash with the master-keyed mac (RFC 5246 §7.4.9).
func finishedVerifyData(mac hash.Hash, isClient bool, transcriptHash []byte) []byte {
	label := labelServerFinished
	if isClient {
		label = labelClientFinished
	}
	out := make([]byte, finishedVerifyLen)
	prf(mac, out, label, transcriptHash)
	return out
}

// transcript accumulates handshake messages and produces the running
// hash that anchors Finished verification and attestation report data.
type transcript struct {
	h hash.Hash
	// sumBuf backs sum's result, so taking the hash allocates nothing.
	sumBuf [sha512.Size384]byte
}

// newTranscript returns a transcript using the suite's PRF hash.
func newTranscript(suiteID uint16) *transcript {
	return &transcript{h: suitePRFHash(suiteID)()}
}

// add appends a marshaled handshake message to the transcript.
func (t *transcript) add(msg []byte) {
	t.h.Write(msg)
}

// sum returns the current transcript hash. hash.Hash.Sum does not
// disturb the running state, so the transcript can keep accumulating
// messages afterwards. The result aliases the transcript and holds
// until the next sum.
func (t *transcript) sum() []byte {
	return t.h.Sum(t.sumBuf[:0])
}
