package tls12

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"hash"
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
// expansion of the same secret.
func pHash(mac hash.Hash, result, seed []byte) {
	// A(0) = seed, A(i) = HMAC(A(i-1)); block i is HMAC(A(i) || seed).
	a := seed
	for off := 0; off < len(result); {
		mac.Reset()
		mac.Write(a)
		a = mac.Sum(nil)

		mac.Reset()
		mac.Write(a)
		mac.Write(seed)
		off += copy(result[off:], mac.Sum(nil))
	}
}

// prf computes the TLS 1.2 PRF of the secret mac is keyed with (see
// prfMAC), filling result.
func prf(mac hash.Hash, result []byte, label string, seed []byte) {
	labelAndSeed := make([]byte, 0, len(label)+len(seed))
	labelAndSeed = append(labelAndSeed, label...)
	labelAndSeed = append(labelAndSeed, seed...)
	pHash(mac, result, labelAndSeed)
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
	seed := make([]byte, 0, len(clientRandom)+len(serverRandom))
	seed = append(seed, clientRandom...)
	seed = append(seed, serverRandom...)
	master := make([]byte, masterSecretLen)
	prf(prfMAC(suiteID, preMaster), master, labelMasterSecret, seed)
	return master
}

// keyBlock derives n bytes of key material with the master-keyed mac
// (RFC 5246 §6.3; note the server_random || client_random seed order).
func keyBlock(mac hash.Hash, clientRandom, serverRandom []byte, n int) []byte {
	seed := make([]byte, 0, len(clientRandom)+len(serverRandom))
	seed = append(seed, serverRandom...)
	seed = append(seed, clientRandom...)
	kb := make([]byte, n)
	prf(mac, kb, labelKeyExpansion, seed)
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
	// raw optionally retains the concatenated message bytes for
	// debugging; unused in production paths.
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
// messages afterwards.
func (t *transcript) sum() []byte {
	return t.h.Sum(nil)
}
