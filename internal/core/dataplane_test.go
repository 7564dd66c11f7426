package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/enclave"
	"repro/internal/tls12"
)

const testSuite = tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384

// testKeyMaterial generates the two hops' keys of a one-middlebox path.
func testKeyMaterial(t *testing.T) *KeyMaterial {
	t.Helper()
	hopA, err := GenerateHopKeys(testSuite)
	if err != nil {
		t.Fatal(err)
	}
	hopB, err := GenerateHopKeys(testSuite)
	if err != nil {
		t.Fatal(err)
	}
	return &KeyMaterial{Version: tls12.VersionTLS12, Down: *hopA, Up: *hopB}
}

// refPlane is the tests' independent model of a middlebox hop: the
// same key material as the plane under test, driven strictly in stream
// order through tls12's live-sequence OpenInPlace/SealAppend — the
// record layer the endpoints use, which cipherat_test.go pins against
// the explicit-sequence variants the data plane runs on. AES-GCM is
// deterministic, so a correct plane reproduces its output byte for
// byte.
type refPlane struct {
	open, seal [2]*tls12.CipherState // by dirIndex
	proc       Processor
}

func newRefPlane(t *testing.T, km *KeyMaterial, proc Processor) *refPlane {
	t.Helper()
	downC2S, downS2C, err := km.Down.cipherStates()
	if err != nil {
		t.Fatal(err)
	}
	upC2S, upS2C, err := km.Up.cipherStates()
	if err != nil {
		t.Fatal(err)
	}
	return &refPlane{
		open: [2]*tls12.CipherState{downC2S, upS2C},
		seal: [2]*tls12.CipherState{upC2S, downS2C},
		proc: proc,
	}
}

// appendRecord frames one sealed record at the direction's live
// sealing sequence.
func (r *refPlane) appendRecord(dir Direction, dst []byte, typ tls12.ContentType, plaintext []byte) []byte {
	body := r.seal[dirIndex(dir)].SealAppend(nil, typ, plaintext)
	dst = append(dst, byte(typ), byte(tls12.VersionTLS12>>8), byte(tls12.VersionTLS12&0xff), byte(len(body)>>8), byte(len(body)))
	return append(dst, body...)
}

// reseal opens recs in order, transforms application data, fragments at
// the TLS plaintext limit and reseals, stopping at the first failure.
// It destroys the input payloads.
func (r *refPlane) reseal(dir Direction, recs []tls12.RawRecord, dst []byte) ([]byte, batchResult, error) {
	var res batchResult
	for _, rec := range recs {
		out, err := r.open[dirIndex(dir)].OpenInPlace(rec.Type, rec.Payload)
		if err != nil {
			return dst, res, err
		}
		if rec.Type == tls12.TypeApplicationData && r.proc != nil {
			if out, err = r.proc.Process(dir, out); err != nil {
				return dst, res, err
			}
		}
		for {
			n := len(out)
			if n > tls12.MaxPlaintext {
				n = tls12.MaxPlaintext
			}
			dst = r.appendRecord(dir, dst, rec.Type, out[:n])
			res.appended++
			if out = out[n:]; len(out) == 0 {
				break
			}
		}
		res.opened++
	}
	return dst, res, nil
}

// cloneRecords deep-copies a batch: opening destroys payloads in place,
// so the plane and the reference each need their own.
func cloneRecords(recs []tls12.RawRecord) []tls12.RawRecord {
	out := make([]tls12.RawRecord, len(recs))
	for i, rec := range recs {
		out[i] = tls12.RawRecord{Type: rec.Type, Payload: append([]byte(nil), rec.Payload...)}
	}
	return out
}

// testPlane is a data plane plus the positions its next batch works
// at — what a commit gate keeps for the relay.
type testPlane struct {
	*dataPlane
	openSeq, sealSeq uint64
}

// testDataPlaneKit builds a data plane, its reference model, and cipher
// states playing the adjacent hops: src seals what the plane opens on
// hop A, sink opens what it reseals onto hop B.
func testDataPlaneKit(t *testing.T, newProc func() Processor) (dp *testPlane, ref *refPlane, src, sink *tls12.CipherState) {
	t.Helper()
	km := testKeyMaterial(t)
	var proc, refProc Processor
	if newProc != nil {
		proc, refProc = newProc(), newProc()
	}
	host, err := newDataPlane(km, proc)
	if err != nil {
		t.Fatal(err)
	}
	dp = &testPlane{dataPlane: host}
	ref = newRefPlane(t, km, refProc)
	if src, err = tls12.NewCipherState(testSuite, km.Down.C2SKey, km.Down.C2SIV, 0); err != nil {
		t.Fatal(err)
	}
	if sink, err = tls12.NewCipherState(testSuite, km.Up.C2SKey, km.Up.C2SIV, 0); err != nil {
		t.Fatal(err)
	}
	return dp, ref, src, sink
}

// runPlane runs one batch through the plane the way the relay's inline
// job does, and checks it against the reference.
func runPlane(t *testing.T, dp *testPlane, ref *refPlane, recs []tls12.RawRecord) ([]byte, batchResult, error) {
	t.Helper()
	want, wantRes, wantErr := ref.reseal(DirClientToServer, cloneRecords(recs), nil)
	rsv := batchReservation{openStart: dp.openSeq, sealStart: dp.sealSeq}
	out, res, err := dp.process(DirClientToServer, recs, rsv, new(tls12.CryptoScratch), nil)
	dp.openSeq += uint64(res.opened)
	dp.sealSeq += uint64(res.appended)
	if !bytes.Equal(out, want) {
		t.Fatalf("plane output diverges from the reference: %d bytes vs %d", len(out), len(want))
	}
	if res != wantRes || (err == nil) != (wantErr == nil) {
		t.Fatalf("plane outcome %+v / %v, reference %+v / %v", res, err, wantRes, wantErr)
	}
	return out, res, err
}

// parseWire splits resealed output back into raw records.
func parseWire(t *testing.T, wire []byte) []tls12.RawRecord {
	t.Helper()
	var recs []tls12.RawRecord
	for len(wire) > 0 {
		typ, length, err := tls12.ParseRecordHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, tls12.RawRecord{
			Type:    typ,
			Payload: wire[tls12.RecordHeaderLen : tls12.RecordHeaderLen+length],
		})
		wire = wire[tls12.RecordHeaderLen+length:]
	}
	return recs
}

// TestDataPlaneEmptyAppDataResealed: a zero-length application-data
// record (legal TLS, e.g. as a traffic-analysis countermeasure) must be
// resealed and forwarded, not silently dropped — dropping it would
// desynchronize the hop sequence numbers.
func TestDataPlaneEmptyAppDataResealed(t *testing.T) {
	dp, ref, src, sink := testDataPlaneKit(t, nil)
	rec := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: src.Seal(tls12.TypeApplicationData, nil),
	}
	out, res, err := runPlane(t, dp, ref, []tls12.RawRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.appended != 1 || res.opened != 1 {
		t.Fatalf("empty app-data record yielded %+v, want 1 appended, 1 opened", res)
	}
	recs := parseWire(t, out)
	plain, err := sink.OpenInPlace(recs[0].Type, recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 0 {
		t.Fatalf("resealed payload is %d bytes, want 0", len(plain))
	}
}

// TestDataPlaneBatchMatchesSingle: how a stream is sliced into batches
// must not show in the output — N records as one batch through one
// plane, and as N single-record batches through another, both equal the
// reference's record-by-record pass.
func TestDataPlaneBatchMatchesSingle(t *testing.T) {
	payloads := [][]byte{
		[]byte("first"),
		bytes.Repeat([]byte{0xAB}, 5000),
		{},
		[]byte("last"),
	}
	sealBatch := func(src *tls12.CipherState) []tls12.RawRecord {
		recs := make([]tls12.RawRecord, len(payloads))
		for i, p := range payloads {
			recs[i] = tls12.RawRecord{
				Type:    tls12.TypeApplicationData,
				Payload: src.Seal(tls12.TypeApplicationData, p),
			}
		}
		return recs
	}

	dpA, refA, srcA, _ := testDataPlaneKit(t, nil)
	_, batchRes, err := runPlane(t, dpA, refA, sealBatch(srcA))
	if err != nil {
		t.Fatal(err)
	}

	dpB, refB, srcB, _ := testDataPlaneKit(t, nil)
	var singleRes batchResult
	for _, rec := range sealBatch(srcB) {
		_, res, err := runPlane(t, dpB, refB, []tls12.RawRecord{rec})
		if err != nil {
			t.Fatal(err)
		}
		singleRes.appended += res.appended
		singleRes.opened += res.opened
	}
	if batchRes != singleRes {
		t.Fatalf("batch accounting %+v, singles %+v", batchRes, singleRes)
	}
}

// TestDataPlaneProcessorExpansion: a processor growing a record beyond
// the fragment limit forces re-fragmentation into multiple records,
// all of which must open in order at the sink.
func TestDataPlaneProcessorExpansion(t *testing.T) {
	grow := func() Processor {
		return ProcessorFunc(func(dir Direction, chunk []byte) ([]byte, error) {
			return bytes.Repeat(chunk, 3), nil
		})
	}
	dp, ref, src, sink := testDataPlaneKit(t, grow)
	payload := bytes.Repeat([]byte{0x42}, 6000) // ×3 = 18000 > maxPlaintext
	rec := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: src.Seal(tls12.TypeApplicationData, payload),
	}
	out, res, err := runPlane(t, dp, ref, []tls12.RawRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.appended != 2 || res.opened != 1 {
		t.Fatalf("18000-byte output yielded %+v, want 2 appended, 1 opened", res)
	}
	var got []byte
	for _, r := range parseWire(t, out) {
		plain, err := sink.OpenInPlace(r.Type, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, plain...)
	}
	if !bytes.Equal(got, bytes.Repeat(payload, 3)) {
		t.Fatal("expanded payload corrupted")
	}
}

// TestDataPlaneProcessorReusesOutput: a Processor may return one
// buffer from every call, overwriting its previous output (Processor's
// output contract). Here each call writes its chunk three times into
// the same buffer, so an output read after the next call would carry
// the next record's bytes; what the host plane and the enclave plane
// seal must still equal the reference's, record for record, across one
// multi-record batch that refragments.
func TestDataPlaneProcessorReusesOutput(t *testing.T) {
	reuse := func() Processor {
		var out []byte
		return ProcessorFunc(func(dir Direction, chunk []byte) ([]byte, error) {
			out = out[:0]
			for i := 0; i < 3; i++ {
				out = append(out, chunk...)
			}
			return out, nil
		})
	}
	authority, err := enclave.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	km := testKeyMaterial(t)
	src, err := tls12.NewCipherState(testSuite, km.Down.C2SKey, km.Down.C2SIV, 0)
	if err != nil {
		t.Fatal(err)
	}
	var recs []tls12.RawRecord
	for i, n := range []int{6000, 100, 6000, 0, 2500} { // ×3: two fragments, one, two, one, one
		recs = append(recs, tls12.RawRecord{
			Type:    tls12.TypeApplicationData,
			Payload: src.Seal(tls12.TypeApplicationData, bytes.Repeat([]byte{byte('a' + i)}, n)),
		})
	}
	want, wantRes, err := newRefPlane(t, km, reuse()).reseal(DirClientToServer, cloneRecords(recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	host, err := newDataPlane(km, reuse())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := newDataPlane(km, reuse())
	if err != nil {
		t.Fatal(err)
	}
	encl := platform.CreateEnclave(enclave.CodeImage{Name: "reuse-output", Version: "1.0"})
	planes := map[string]dataPlaneHandler{"host": host, "enclave": installEnclaveDataPlane(encl, inner)}
	for name, dp := range planes {
		out, res, err := dp.process(DirClientToServer, cloneRecords(recs), batchReservation{}, new(tls12.CryptoScratch), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res != wantRes || res.appended != 7 {
			t.Fatalf("%s: %+v, reference %+v, want 7 appended", name, res, wantRes)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s plane's output diverges from the reference: a reused processor buffer was read late", name)
		}
	}
}

// TestDataPlaneMACFailure: a record sealed under the wrong key must
// kill the batch with the hop-MAC error (path integrity, P4).
func TestDataPlaneMACFailure(t *testing.T) {
	dp, ref, src, _ := testDataPlaneKit(t, nil)
	wrongKeys, err := GenerateHopKeys(testSuite)
	if err != nil {
		t.Fatal(err)
	}
	wrongSrc, err := tls12.NewCipherState(testSuite, wrongKeys.C2SKey, wrongKeys.C2SIV, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: src.Seal(tls12.TypeApplicationData, []byte("ok")),
	}
	bad := tls12.RawRecord{
		Type:    tls12.TypeApplicationData,
		Payload: wrongSrc.Seal(tls12.TypeApplicationData, []byte("evil")),
	}
	_, res, err := runPlane(t, dp, ref, []tls12.RawRecord{good, bad})
	if err == nil || !strings.Contains(err.Error(), "hop MAC check failed") {
		t.Fatalf("err = %v", err)
	}
	if res.opened != 1 || res.appended != 1 {
		t.Fatalf("partial-batch accounting %+v, want 1 opened, 1 appended", res)
	}
}
