package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// application data, and reseals for the next hop (paper Figure 4). It
// is immutable once built — keys and the Processor, no sequence
// position: the session's commit gates (pipeline.go) own those, and
// every call is told the positions it works at (DESIGN.md §14).
//
// process runs on any goroutine, any number concurrently, using only
// the sequence starts it is handed and caller-owned scratch. It appends
// the resealed records in wire form (header included) to dst and
// returns the extended buffer plus the batch accounting. Input payloads are
// decrypted in place and destroyed; the appended bytes never alias
// them. On error, dst still carries the records resealed before the
// failure — the caller must release them, because their sealing
// sequence numbers are spent.
//
// appendAlertAt seals an alert at the given sequence of a direction's
// sealing key and appends its wire form to dst. A relay uses it fatally
// to tell the next hop the path died (DESIGN.md §7), and at warning
// level to seal the close_notify a force-closed session sends at the
// drain deadline; either way it must go through the data plane because
// a plaintext alert would be a MAC failure for a peer holding hop keys.
type dataPlaneHandler interface {
	process(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchResult, error)
	appendAlertAt(dir Direction, seq uint64, level tls12.AlertLevel, desc tls12.AlertDescription, sc *tls12.CryptoScratch, dst []byte) ([]byte, error)
}

// batchReservation is the pair of sequence starts a commit gate hands a
// job right before it is processed (commitGate.start): the first open
// sequence (arrival order) and the first seal sequence. The job seals
// as many records as its output takes from sealStart on; no range is
// claimed ahead, because the job's commit moves the gate past them
// before the direction's next job starts.
type batchReservation struct {
	openStart uint64
	sealStart uint64
}

// dataPlane is the host-memory implementation. Nothing in it is written
// after newDataPlane returns: the cipher states are used through their
// explicit-sequence methods only, so any goroutine may call it.
type dataPlane struct {
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

// appendSealedRecordAt seals one outbound fragment at an explicit
// sequence number with caller-owned scratch and appends its full wire
// form (header, explicit nonce, ciphertext, tag) to dst with no
// intermediate copy.
func appendSealedRecordAt(dst []byte, cs *tls12.CipherState, sc *tls12.CryptoScratch, seq uint64, typ tls12.ContentType, plaintext []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(typ), byte(tls12.VersionTLS12>>8), byte(tls12.VersionTLS12&0xff), 0, 0)
	dst = cs.SealAppendAt(sc, dst, seq, typ, plaintext)
	binary.BigEndian.PutUint16(dst[start+3:start+5], uint16(len(dst)-start-tls12.RecordHeaderLen))
	return dst
}

// states returns the open/seal cipher states for a direction.
func (dp *dataPlane) states(dir Direction) (openCS, sealCS *tls12.CipherState) {
	if dir == DirServerToClient {
		return dp.openS2C, dp.sealS2C
	}
	return dp.openC2S, dp.sealC2S
}

// process implements dataPlaneHandler. It takes no lock — any number
// of workers may run it concurrently for the same direction, each with
// its own scratch. A MAC failure is fatal for the session:
// per-hop keys are what enforce path integrity (P4), so a record
// arriving under the wrong key must kill the connection, not be
// forwarded.
func (dp *dataPlane) process(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) ([]byte, batchResult, error) {
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

// appendAlertAt implements dataPlaneHandler.
func (dp *dataPlane) appendAlertAt(dir Direction, seq uint64, level tls12.AlertLevel, desc tls12.AlertDescription, sc *tls12.CryptoScratch, dst []byte) ([]byte, error) {
	_, sealCS := dp.states(dir)
	body := [2]byte{byte(level), byte(desc)}
	return appendSealedRecordAt(dst, sealCS, sc, seq, tls12.TypeAlert, body[:]), nil
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
// enclave: the nth plane installed is under dataPlaneKey(n).
var dpCounter atomic.Uint64

func dataPlaneKey(n uint64) string { return fmt.Sprintf("mbtls:dataplane:%d", n) }

// installEnclaveDataPlane moves a freshly built data plane into the
// enclave; retirePlane deletes it.
func installEnclaveDataPlane(e *enclave.Enclave, dp *dataPlane) *enclaveDataPlane {
	key := dataPlaneKey(dpCounter.Add(1))
	e.Enter(func(mem enclave.Memory) {
		mem.Put(key, dp)
	})
	return &enclaveDataPlane{e: e, key: key}
}

// errPlaneMissing is what a call into a retired enclave data plane
// gets.
var errPlaneMissing = errors.New("core: enclave data plane missing")

// enter runs f on the inner plane inside the enclave: one boundary
// crossing. Enclave.Enter does not serialize callers, so workers
// processing different batches of one session proceed concurrently
// inside the enclave — safe because the inner plane is immutable.
func (edp *enclaveDataPlane) enter(f func(dp *dataPlane) error) (err error) {
	edp.e.Enter(func(mem enclave.Memory) {
		dp, ok := mem.Get(edp.key).(*dataPlane)
		if !ok {
			err = errPlaneMissing
			return
		}
		err = f(dp)
	})
	return err
}

// process implements dataPlaneHandler: the whole batch crosses the
// boundary as the job's single ecall, inline or pipelined — crossings
// stay O(batches), never O(records), which is what lets Figure 7's
// enclave configuration track the no-enclave one.
func (edp *enclaveDataPlane) process(dir Direction, recs []tls12.RawRecord, rsv batchReservation, sc *tls12.CryptoScratch, dst []byte) (out []byte, res batchResult, err error) {
	out = dst
	err = edp.enter(func(dp *dataPlane) (err error) {
		out, res, err = dp.process(dir, recs, rsv, sc, dst)
		return err
	})
	return out, res, err
}

// appendAlertAt implements dataPlaneHandler inside the enclave.
func (edp *enclaveDataPlane) appendAlertAt(dir Direction, seq uint64, level tls12.AlertLevel, desc tls12.AlertDescription, sc *tls12.CryptoScratch, dst []byte) (out []byte, err error) {
	out = dst
	err = edp.enter(func(dp *dataPlane) (err error) {
		out, err = dp.appendAlertAt(dir, seq, level, desc, sc, dst)
		return err
	})
	return out, err
}
