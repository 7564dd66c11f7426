package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/enclave"
	"repro/internal/tls12"
)

// maxRecordPlaintext mirrors the TLS fragment limit for resealed
// records.
const maxRecordPlaintext = tls12.MaxPlaintext

// batchResult accounts for one job. Both counters are exact even when
// the job fails partway: opened counts the input records fully opened
// and resealed before the failure, appended the output records framed
// into dst. Counting this way keeps the stats surface deterministic —
// totals depend on the record stream, not on how the relay happened to
// slice it into jobs.
type batchResult struct {
	appended int // records framed into dst
	opened   int // input records fully opened and resealed
}

// dataPlaneHandler is a middlebox's per-session data plane: it opens
// protected records arriving on one hop, optionally transforms
// application data, and reseals for the next hop (paper Figure 4).
// Every record crosses it the same way (DESIGN.md §14): a reservation
// fixes the batch's sequence numbers, processBatchAt does the work, and
// the session's commit gate releases the output in arrival order.
//
// reserveBatch runs on the relay goroutine and claims the sequence
// numbers the batch will consume — the open range from arrival order,
// the seal range from the predicted output geometry.
//
// processBatchAt runs on any goroutine, any number concurrently, using
// only the reservation and caller-owned scratch. It appends the
// resealed records in wire form (header included) to dst and returns
// the extended buffer plus the batch accounting. Input payloads are
// decrypted in place and destroyed; the appended bytes never alias
// them. On error, dst still carries the records resealed before the
// failure — the caller must release them, because their sealing
// sequence numbers are spent.
//
// processInline is reserveBatch followed by processBatchAt for a job
// the relay goroutine runs itself. It exists so the enclave plane pays
// one boundary crossing for the pair, which is what lets Figure 7's
// enclave configuration track the no-enclave one.
//
// appendAlert seals an alert under the given direction's sealing
// state and appends its wire form to dst. A relay uses it fatally to
// tell the next hop the path died (DESIGN.md §7), and at warning level
// to seal the close_notify a force-closed session sends at the drain
// deadline; either way it must go through the data plane because a
// plaintext alert would be a MAC failure for a peer holding hop keys.
// sealSeq/resetSealSeq let the commit gate read the sealing position
// and move it to the committed one — back over an abandoned
// reservation, or forward over an open-ended one — so a subsequently
// sealed record or alert still verifies at the peer.
type dataPlaneHandler interface {
	reserveBatch(dir Direction, recs []tls12.RawRecord) batchReservation
	processBatchAt(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchResult, error)
	processInline(dir Direction, recs []tls12.RawRecord, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchReservation, batchResult, error)
	appendAlert(dir Direction, level tls12.AlertLevel, desc tls12.AlertDescription, dst []byte) ([]byte, error)
	sealSeq(dir Direction) uint64
	resetSealSeq(dir Direction, seq uint64)
}

// batchReservation is the sequence-number claim reserveBatch hands to
// processBatchAt: the first open sequence (arrival order), the first
// seal sequence, and the number of sealing sequences claimed. Without a
// Processor the claim is exact: every inbound record reseals to
// ceil(plaintextLen/maxRecordPlaintext) records (minimum one), and
// plaintext length is determined by wire length. A Processor makes the
// geometry unpredictable, so the seal range is open-ended — outCount is
// zero, nothing past sealStart is claimed, and the commit gate moves
// the sealing position once the output is known. That is only sound
// with no other job in flight, which holds because a session with a
// Processor runs every job inline.
type batchReservation struct {
	openStart uint64
	sealStart uint64
	outCount  int
}

// dataPlane is the host-memory implementation.
type dataPlane struct {
	// Per-direction locks. Each direction is normally driven by its own
	// single relay goroutine, but fault propagation seals an alert in
	// both directions from whichever goroutine saw the failure, so the
	// sealing states need protection. One uncontended lock per batch is
	// free next to the AEAD work.
	c2sMu sync.Mutex
	s2cMu sync.Mutex

	// Opening states for inbound records and sealing states for
	// outbound records, per direction. For a middlebox, client→server
	// records are opened with the downstream (client-side) hop key and
	// sealed with the upstream hop key.
	openC2S *tls12.CipherState
	sealC2S *tls12.CipherState
	openS2C *tls12.CipherState
	sealS2C *tls12.CipherState

	proc Processor
}

// newDataPlane wires a middlebox data plane from received key material.
func newDataPlane(km *KeyMaterial, proc Processor) (*dataPlane, error) {
	downC2S, downS2C, err := km.Down.cipherStates()
	if err != nil {
		return nil, err
	}
	upC2S, upS2C, err := km.Up.cipherStates()
	if err != nil {
		return nil, err
	}
	return &dataPlane{
		openC2S: downC2S,
		sealC2S: upC2S,
		openS2C: upS2C,
		sealS2C: downS2C,
		proc:    proc,
	}, nil
}

// appendSealedRecord seals one outbound fragment and appends its full
// wire form (header, explicit nonce, ciphertext, tag) to dst with no
// intermediate copy.
func appendSealedRecord(dst []byte, cs *tls12.CipherState, typ tls12.ContentType, plaintext []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(typ), byte(tls12.VersionTLS12>>8), byte(tls12.VersionTLS12&0xff), 0, 0)
	dst = cs.SealAppend(dst, typ, plaintext)
	binary.BigEndian.PutUint16(dst[start+3:start+5], uint16(len(dst)-start-tls12.RecordHeaderLen))
	return dst
}

// appendSealedRecordAt is appendSealedRecord at an explicit sequence
// number with caller-owned scratch — the pipeline-worker variant.
func appendSealedRecordAt(dst []byte, cs *tls12.CipherState, sc *tls12.CryptoScratch, seq uint64, typ tls12.ContentType, plaintext []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(typ), byte(tls12.VersionTLS12>>8), byte(tls12.VersionTLS12&0xff), 0, 0)
	dst = cs.SealAppendAt(sc, dst, seq, typ, plaintext)
	binary.BigEndian.PutUint16(dst[start+3:start+5], uint16(len(dst)-start-tls12.RecordHeaderLen))
	return dst
}

// dirLock returns the lock guarding a direction's cipher states.
func (dp *dataPlane) dirLock(dir Direction) *sync.Mutex {
	if dir == DirServerToClient {
		return &dp.s2cMu
	}
	return &dp.c2sMu
}

// states returns the open/seal cipher states for a direction. Callers
// must hold the direction's lock unless using only the explicit-
// sequence methods on the returned states.
func (dp *dataPlane) states(dir Direction) (openCS, sealCS *tls12.CipherState) {
	if dir == DirServerToClient {
		return dp.openS2C, dp.sealS2C
	}
	return dp.openC2S, dp.sealC2S
}

// predictOutRecords returns the number of records resealing one inbound
// payload produces when no Processor is installed: at least one, and
// one more per full fragment beyond maxRecordPlaintext. A payload too
// short to open predicts one — the open will fail, and the fault path
// rewinds the over-reserved seal range.
func predictOutRecords(payloadLen, overhead int) int {
	pt := payloadLen - overhead
	if pt <= maxRecordPlaintext {
		return 1
	}
	return (pt + maxRecordPlaintext - 1) / maxRecordPlaintext
}

// reserveBatch implements dataPlaneHandler. The open range is one
// sequence per inbound record; the seal range is the output geometry
// predicted from wire lengths, or open-ended when a Processor makes it
// unpredictable. Reservation happens under the direction lock so it
// serializes against alert sealing and the gate's repositioning, but
// the claimed ranges are then consumed with no lock at all.
func (dp *dataPlane) reserveBatch(dir Direction, recs []tls12.RawRecord) batchReservation {
	mu := dp.dirLock(dir)
	mu.Lock()
	defer mu.Unlock()
	openCS, sealCS := dp.states(dir)
	rsv := batchReservation{openStart: openCS.ReserveSeq(uint64(len(recs)))}
	if dp.proc != nil {
		rsv.sealStart = sealCS.Seq()
		return rsv
	}
	overhead := sealCS.Overhead()
	for _, rec := range recs {
		rsv.outCount += predictOutRecords(len(rec.Payload), overhead)
	}
	rsv.sealStart = sealCS.ReserveSeq(uint64(rsv.outCount))
	return rsv
}

// processBatchAt implements dataPlaneHandler. It takes no lock — any
// number of workers may run it concurrently for the same direction,
// each with its own scratch. A MAC failure is fatal for the session:
// per-hop keys are what enforce path integrity (P4), so a record
// arriving under the wrong key must kill the connection, not be
// forwarded.
func (dp *dataPlane) processBatchAt(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchResult, error) {
	openCS, sealCS := dp.states(dir)
	var res batchResult
	openSeq, sealSeq := rsv.openStart, rsv.sealStart
	for _, rec := range recs {
		plaintext, err := openCS.OpenInPlaceAt(sc, openSeq, rec.Type, rec.Payload)
		if err != nil {
			return dst, res, fmt.Errorf("core: hop MAC check failed (%s, %s): %w", dir, rec.Type, err)
		}
		openSeq++
		out := plaintext
		if rec.Type == tls12.TypeApplicationData && dp.proc != nil {
			out, err = dp.proc.Process(dir, plaintext)
			if err != nil {
				return dst, res, fmt.Errorf("core: middlebox processor: %w", err)
			}
		}
		// Every inbound record yields at least one outbound record, even
		// when the payload is empty: non-data records (alerts) reseal
		// verbatim, and an empty application-data record — legal TLS,
		// sometimes sent as a traffic-analysis countermeasure — must
		// still reach the next hop with the sequence numbers it consumed.
		for first := true; first || len(out) > 0; first = false {
			frag := out
			if len(frag) > maxRecordPlaintext {
				frag = frag[:maxRecordPlaintext]
			}
			out = out[len(frag):]
			dst = appendSealedRecordAt(dst, sealCS, sc, sealSeq, rec.Type, frag)
			sealSeq++
			res.appended++
		}
		res.opened++
	}
	return dst, res, nil
}

// processInline implements dataPlaneHandler.
func (dp *dataPlane) processInline(dir Direction, recs []tls12.RawRecord, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchReservation, batchResult, error) {
	rsv := dp.reserveBatch(dir, recs)
	out, res, err := dp.processBatchAt(dir, recs, rsv, sc, dst)
	return out, rsv, res, err
}

// sealSeq implements dataPlaneHandler.
func (dp *dataPlane) sealSeq(dir Direction) uint64 {
	mu := dp.dirLock(dir)
	mu.Lock()
	defer mu.Unlock()
	_, sealCS := dp.states(dir)
	return sealCS.Seq()
}

// resetSealSeq implements dataPlaneHandler: the fault-path rewind over
// reserved-but-uncommitted sealing sequences.
func (dp *dataPlane) resetSealSeq(dir Direction, seq uint64) {
	mu := dp.dirLock(dir)
	mu.Lock()
	defer mu.Unlock()
	_, sealCS := dp.states(dir)
	sealCS.SetSeq(seq)
}

// appendAlert implements dataPlaneHandler.
func (dp *dataPlane) appendAlert(dir Direction, level tls12.AlertLevel, desc tls12.AlertDescription, dst []byte) ([]byte, error) {
	mu := dp.dirLock(dir)
	mu.Lock()
	defer mu.Unlock()
	_, sealCS := dp.states(dir)
	body := [2]byte{byte(level), byte(desc)}
	return appendSealedRecord(dst, sealCS, tls12.TypeAlert, body[:]), nil
}

// enclaveDataPlane keeps the cipher states and processor inside an SGX
// enclave; every record crossing the middlebox enters and leaves the
// enclave (the workload measured by the paper's Figure 7). Each
// session's plane lives under its own enclave-memory key, since one
// enclave serves every session of the middlebox concurrently.
type enclaveDataPlane struct {
	e   *enclave.Enclave
	key string
}

// dpCounter disambiguates concurrent sessions' data planes within one
// enclave.
var dpCounter atomic.Uint64

// installEnclaveDataPlane moves a freshly built data plane into the
// enclave.
func installEnclaveDataPlane(e *enclave.Enclave, dp *dataPlane) *enclaveDataPlane {
	key := fmt.Sprintf("mbtls:dataplane:%d", dpCounter.Add(1))
	e.Enter(func(mem enclave.Memory) {
		mem.Put(key, dp)
	})
	return &enclaveDataPlane{e: e, key: key}
}

// enter runs f on the inner plane inside the enclave: one boundary
// crossing. Enclave.Enter does not serialize callers, so workers
// processing different batches of one session proceed concurrently
// inside the enclave — safe because processBatchAt touches only
// immutable state plus the reservation, and everything else is
// protected by the inner plane's per-direction locks.
func (edp *enclaveDataPlane) enter(f func(dp *dataPlane) error) (err error) {
	edp.e.Enter(func(mem enclave.Memory) {
		dp, ok := mem.Get(edp.key).(*dataPlane)
		if !ok {
			err = errors.New("core: enclave data plane missing")
			return
		}
		err = f(dp)
	})
	return err
}

// reserveBatch implements dataPlaneHandler: one ecall claims the
// batch's sequence ranges. Together with processBatchAt a pipelined
// batch costs two boundary crossings instead of an inline one's single
// crossing — the price of letting a worker run the crypto off the relay
// goroutine — but the per-record amortization Figure 7 depends on is
// preserved: crossings stay O(batches), never O(records).
func (edp *enclaveDataPlane) reserveBatch(dir Direction, recs []tls12.RawRecord) (rsv batchReservation) {
	//nolint:errcheck // a missing plane fails the processBatchAt that follows
	edp.enter(func(dp *dataPlane) error {
		rsv = dp.reserveBatch(dir, recs)
		return nil
	})
	return rsv
}

// processBatchAt implements dataPlaneHandler: the whole batch crosses
// the boundary as the worker's single ecall.
func (edp *enclaveDataPlane) processBatchAt(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) (out []byte, res batchResult, err error) {
	out = dst
	err = edp.enter(func(dp *dataPlane) (err error) {
		out, res, err = dp.processBatchAt(dir, recs, rsv, sc, dst)
		return err
	})
	return out, res, err
}

// processInline implements dataPlaneHandler: reservation and batch in
// one ecall.
func (edp *enclaveDataPlane) processInline(dir Direction, recs []tls12.RawRecord, sc *tls12.CryptoScratch, dst []byte) (out []byte, rsv batchReservation, res batchResult, err error) {
	out = dst
	err = edp.enter(func(dp *dataPlane) (err error) {
		out, rsv, res, err = dp.processInline(dir, recs, sc, dst)
		return err
	})
	return out, rsv, res, err
}

// sealSeq implements dataPlaneHandler inside the enclave.
func (edp *enclaveDataPlane) sealSeq(dir Direction) (seq uint64) {
	//nolint:errcheck // a missing plane has no position to report
	edp.enter(func(dp *dataPlane) error {
		seq = dp.sealSeq(dir)
		return nil
	})
	return seq
}

// resetSealSeq implements dataPlaneHandler inside the enclave.
func (edp *enclaveDataPlane) resetSealSeq(dir Direction, seq uint64) {
	//nolint:errcheck // a missing plane has no position to move
	edp.enter(func(dp *dataPlane) error {
		dp.resetSealSeq(dir, seq)
		return nil
	})
}

// appendAlert implements dataPlaneHandler inside the enclave.
func (edp *enclaveDataPlane) appendAlert(dir Direction, level tls12.AlertLevel, desc tls12.AlertDescription, dst []byte) (out []byte, err error) {
	out = dst
	err = edp.enter(func(dp *dataPlane) (err error) {
		out, err = dp.appendAlert(dir, level, desc, dst)
		return err
	})
	return out, err
}
