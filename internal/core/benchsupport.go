package core

import (
	"crypto/rand"
	"io"

	"repro/internal/enclave"
	"repro/internal/tls12"
)

// BenchHarness is a standalone middlebox data plane for the Figure 7
// throughput experiment: a record source playing the clients, the
// middlebox stage under test (forward vs decrypt/re-encrypt, inside or
// outside an enclave), and a sink playing the server. Only
// ProcessBatch belongs in the timed region; SealInto and DrainWire
// account for the client and server machines of the paper's testbed.
//
// All three stages work over caller-provided buffers, so a
// steady-state benchmark loop performs zero heap allocations.
type BenchHarness struct {
	srcSeal  *tls12.CipherState // client sealing toward the middlebox
	sinkOpen *tls12.CipherState // server opening what the middlebox sent

	reencrypt bool
	encl      *enclave.Enclave
	dp        dataPlaneHandler
	sc        *tls12.CryptoScratch // heap-resident, like a relay's

	// The harness is its own commit gate: the client's next sealing
	// sequence, and the positions the next batch opens and reseals at
	// (fresh hop keys start at zero).
	srcSeq, openSeq, sealSeq uint64
}

// NewBenchHarness builds the harness. reencrypt selects the paper's
// "Encryption" middlebox behavior (decrypt on hop A, re-encrypt on hop
// B); otherwise records are forwarded untouched ("No Encryption"). A
// non-nil enclave routes the middlebox stage through it.
func NewBenchHarness(encl *enclave.Enclave, suite uint16, reencrypt bool) (*BenchHarness, error) {
	hopA, err := GenerateHopKeys(suite)
	if err != nil {
		return nil, err
	}
	hopB, err := GenerateHopKeys(suite)
	if err != nil {
		return nil, err
	}
	h := &BenchHarness{reencrypt: reencrypt, encl: encl, sc: new(tls12.CryptoScratch)}
	sinkHop := hopA // a forwarding middlebox: the sink opens hop A directly
	if reencrypt {
		sinkHop = hopB
	}
	if h.srcSeal, _, err = hopA.cipherStates(); err != nil {
		return nil, err
	}
	if h.sinkOpen, _, err = sinkHop.cipherStates(); err != nil {
		return nil, err
	}
	if !reencrypt {
		return h, nil
	}
	dp, err := newDataPlane(&KeyMaterial{Version: tls12.VersionTLS12, Down: *hopA, Up: *hopB}, nil)
	if err != nil {
		return nil, err
	}
	h.dp = dp
	if encl != nil {
		h.dp = installEnclaveDataPlane(encl, dp)
	}
	return h, nil
}

// SealInto appends one framed client record to buf (untimed client
// work) and returns the extended buffer plus the record, whose payload
// aliases it.
func (h *BenchHarness) SealInto(buf, plaintext []byte) ([]byte, tls12.RawRecord) {
	start := len(buf)
	buf = appendSealedRecordAt(buf, h.srcSeal, h.sc, h.srcSeq, tls12.TypeApplicationData, plaintext)
	h.srcSeq++
	return buf, tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: buf[start+tls12.RecordHeaderLen : len(buf)],
	}
}

// ProcessBatch runs a batch of records through the middlebox stage
// under test — the timed region of the Figure 7 experiment — appending
// the framed output records to dst. The input payloads are consumed
// (decrypted in place on the re-encrypt path, which is the relay's
// inline job minus the commit).
func (h *BenchHarness) ProcessBatch(recs []tls12.RawRecord, dst []byte) ([]byte, int, error) {
	if h.reencrypt {
		rsv := batchReservation{openStart: h.openSeq, sealStart: h.sealSeq}
		out, res, err := h.dp.process(DirClientToServer, recs, rsv, h.sc, dst)
		h.openSeq += uint64(res.opened)
		h.sealSeq += uint64(res.appended)
		return out, res.appended, err
	}
	// Forwarding only. With an enclave, the batch still traverses the
	// enclave application — one ecall round trip for the whole batch and
	// a copy — matching the paper's "No Encryption + Enclave"
	// configuration with the amortized boundary crossing.
	if h.encl != nil {
		h.encl.Enter(func(enclave.Memory) {
			for _, rec := range recs {
				dst = rec.AppendWire(dst)
			}
		})
		return dst, len(recs), nil
	}
	for _, rec := range recs {
		dst = rec.AppendWire(dst)
	}
	return dst, len(recs), nil
}

// DrainWire opens every framed record in buf at the sink (untimed
// server work), destroying buf's contents, and returns the total
// plaintext byte count.
func (h *BenchHarness) DrainWire(buf []byte) (int, error) {
	total := 0
	for len(buf) > 0 {
		typ, length, err := tls12.ParseRecordHeader(buf)
		if err != nil {
			return total, err
		}
		plaintext, err := h.sinkOpen.OpenInPlace(typ, buf[tls12.RecordHeaderLen:tls12.RecordHeaderLen+length])
		if err != nil {
			return total, err
		}
		total += len(plaintext)
		buf = buf[tls12.RecordHeaderLen+length:]
	}
	return total, nil
}

// RandomPlaintext returns a buffer of random bytes for the workload
// generator.
func RandomPlaintext(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic(err)
	}
	return b
}
