package core

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/tls12"
)

// captureConn records what the session writes, and keeps recording
// after Close: the test reads the wire a torn-down session left behind.
type captureConn struct {
	net.Conn // unimplemented methods; commit and the alert path only write
	wrote    []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}

func (*captureConn) Close() error { return nil }

// TestCommitGateOwnsSequence drives a direction's commit gate by hand:
// three jobs are reserved up front (as the relay does while its commit
// goroutine is busy), processed against their reservations, and committed — or
// not — around a sealAlertOrdered. The gate is the only holder of the
// positions, seeded from key material that starts both hops away from
// zero, so whatever reached the wire must be what the in-order
// reference (refPlane: tls12's live-sequence SealAppend from the same
// seeds) produces for the committed records followed directly by the
// alert, and an in-order peer must open all of it at consecutive
// sequences.
func TestCommitGateOwnsSequence(t *testing.T) {
	const jobs, perJob = 3, 3
	for _, tc := range []struct {
		name      string
		corrupt   int // job whose second record fails its MAC check; -1 for none
		committed int // jobs committed before the alert; the rest after it
		wantData  int // records that must precede the alert on the wire
	}{
		// Job 1 stops after one record: its partial output is released
		// (those sequences are spent), job 2's claim is abandoned.
		{"failed job mid-stream", 1, 3, perJob + 1},
		// A force-close with two jobs still in flight: their claims are
		// abandoned and their late commits dropped.
		{"alert over jobs in flight", -1, 1, perJob},
		{"alert behind every commit", -1, 3, jobs * perJob},
	} {
		for _, dir := range bothDirections {
			t.Run(tc.name+"/"+dir.String(), func(t *testing.T) {
				km := testKeyMaterial(t)
				km.Down.C2SSeq, km.Up.C2SSeq, km.Up.S2CSeq, km.Down.S2CSeq = 1000, 77, 5000, 9
				// The neighbors: src seals what the plane opens, sink opens
				// what it reseals, each in order from the hop's seed.
				src, err := tls12.NewCipherState(testSuite, km.Down.C2SKey, km.Down.C2SIV, km.Down.C2SSeq)
				sink, serr := tls12.NewCipherState(testSuite, km.Up.C2SKey, km.Up.C2SIV, km.Up.C2SSeq)
				if dir == DirServerToClient {
					src, err = tls12.NewCipherState(testSuite, km.Up.S2CKey, km.Up.S2CIV, km.Up.S2CSeq)
					sink, serr = tls12.NewCipherState(testSuite, km.Down.S2CKey, km.Down.S2CIV, km.Down.S2CSeq)
				}
				if err != nil || serr != nil {
					t.Fatal(err, serr)
				}
				openSeed, sealSeed := src.Seq(), sink.Seq()
				dp, err := newDataPlane(km, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefPlane(t, km, nil)

				wire := &captureConn{}
				mb := &Middlebox{bufs: tls12.SharedRecordBufPool()}
				// Not joined (no role): a failed commit counts its fault but
				// leaves the alert to this test.
				s := mb.newSession(wire, wire, nil)
				s.seedGates(dp)
				pl := newDirPipeline(s, dir)
				defer pl.reclaim()

				var js [jobs]relayJob
				var inOrder []tls12.RawRecord // what the reference walks: the committed jobs' records
				for i := range js {
					j := &js[i]
					for r := 0; r < perJob; r++ {
						sealed := src.Seal(tls12.TypeApplicationData, bytes.Repeat([]byte{byte(i)}, 100*(r+1)))
						if i == tc.corrupt && r == 1 {
							sealed[len(sealed)/2] ^= 0x80
						}
						j.recs = append(j.recs, tls12.RawRecord{Type: tls12.TypeApplicationData, Payload: sealed})
					}
					if i < tc.committed {
						inOrder = append(inOrder, cloneRecords(j.recs)...)
					}
					j.rsv = pl.gate.reserve(j.recs, false)
					want := batchReservation{openStart: openSeed + uint64(i*perJob), sealStart: sealSeed + uint64(i*perJob), outCount: perJob}
					if j.rsv != want {
						t.Fatalf("job %d reserved %+v, want %+v", i, j.rsv, want)
					}
				}
				for i := range js {
					j := &js[i]
					j.out, j.res, j.err = dp.process(dir, j.recs, j.rsv, new(tls12.CryptoScratch), nil)
					if (j.err != nil) != (i == tc.corrupt) {
						t.Fatalf("job %d: err = %v", i, j.err)
					}
				}

				for i := 0; i < tc.committed; i++ {
					pl.commit(&js[i]) //nolint:errcheck // the wire is the oracle
				}
				if err := s.sealAlertOrdered(dp, dir, tls12.AlertLevelFatal, tls12.AlertInternalError); err != nil {
					t.Fatal(err)
				}
				for i := tc.committed; i < jobs; i++ {
					if err := pl.commit(&js[i]); err == nil {
						t.Fatalf("job %d committed behind the alert", i)
					}
				}
				if err := s.sealAlertOrdered(dp, dir, tls12.AlertLevelFatal, tls12.AlertInternalError); err != nil {
					t.Fatal(err) // a second alert is a no-op, not a second record
				}

				want, _, _ := ref.reseal(dir, inOrder, nil)
				want = ref.appendRecord(dir, want, tls12.TypeAlert, []byte{byte(tls12.AlertLevelFatal), byte(tls12.AlertInternalError)})
				if !bytes.Equal(wire.wrote, want) {
					t.Fatalf("wire carries %d bytes, in-order reference %d", len(wire.wrote), len(want))
				}
				recs := parseWire(t, wire.wrote)
				if len(recs) != tc.wantData+1 {
					t.Fatalf("%d records on the wire, want %d and the alert", len(recs), tc.wantData)
				}
				for i, rec := range recs {
					if _, err := sink.OpenInPlace(rec.Type, rec.Payload); err != nil {
						t.Fatalf("record %d does not open at sequence %d: %v", i, sealSeed+uint64(i), err)
					}
				}
				if recs[len(recs)-1].Type != tls12.TypeAlert {
					t.Fatal("the alert is not the last record on the wire")
				}
				g := pl.gate
				if end := sealSeed + uint64(len(recs)); g.sealSeq != end || g.reserved != end {
					t.Fatalf("gate ends at sealSeq %d / reserved %d, want both %d", g.sealSeq, g.reserved, end)
				}
				wantFaults := int64(0)
				if tc.corrupt >= 0 {
					wantFaults = 1
				}
				if got := mb.Stats().FaultsObserved; got != wantFaults {
					t.Fatalf("FaultsObserved = %d, want %d", got, wantFaults)
				}
			})
		}
	}
}
