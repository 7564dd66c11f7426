package core

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/tls12"
)

// FuzzParallelReseal is the differential oracle for the relay's data
// path (DESIGN.md §14). For an arbitrary record stream — sizes, read
// boundaries, alert records, mid-stream corruption, a header that does
// not parse, records for another middlebox's subchannel that pass
// through verbatim, with or without a stateful Processor, all fuzzer
// chosen —
// a real middlebox session relays the stream (relayLoop, the commit
// goroutine, the commit gate; pipelined and inline jobs as the relay
// itself routes them) and everything it puts on the wire must be byte-identical to
// what the independent reference (refPlane, dataplane_test.go) produces
// walking the same records strictly in order: the resealed stream up to
// the first failure, then the fatal alert at the very next sealing
// sequence; pass-through records in stream order between them. Stats
// and the proxysig digest must account for exactly the reference's
// records. The seed corpus is deterministic to the byte;
// see the teardown race noted at the comparison for fuzzer-found
// inputs.

// fuzzRecSpec is one record decoded from fuzz input.
type fuzzRecSpec struct {
	size      int  // plaintext bytes
	alert     bool // seal as a warning alert instead of application data
	corrupt   bool // flip one ciphertext byte after sealing
	endRead   bool // read boundary after this record
	badHeader bool // an unparsable header follows in the same read; the stream ends there
	pass      bool // an Encapsulated record of size bytes for another subchannel, relayed verbatim
}

const (
	fuzzMaxRecords = 48
	fuzzMaxSize    = 2000
	// fuzzMaxRead forces a read boundary, so one scripted read always
	// fits the relay's read buffer whole.
	fuzzMaxRead = 32 << 10
)

// decodeRecSpecs turns fuzz bytes into record specs: three bytes per
// record (size lo, size hi, flags).
func decodeRecSpecs(data []byte) []fuzzRecSpec {
	var specs []fuzzRecSpec
	for len(data) >= 3 && len(specs) < fuzzMaxRecords {
		size := (int(data[0]) | int(data[1])<<8) % (fuzzMaxSize + 1)
		flags := data[2]
		specs = append(specs, fuzzRecSpec{
			size:      size,
			alert:     flags&1 != 0,
			corrupt:   flags&2 != 0,
			endRead:   flags&4 != 0,
			badHeader: flags&8 != 0,
			pass:      flags&16 != 0,
		})
		data = data[3:]
	}
	return specs
}

// fuzzProc is a Processor that needs its input in order: what it does
// to a chunk depends on how many it has seen in that direction. It
// empties, grows (past the fragment limit for large chunks), shrinks,
// and stamps chunks in turn.
type fuzzProc struct{ seen [2]int }

func (p *fuzzProc) Process(dir Direction, chunk []byte) ([]byte, error) {
	n := p.seen[dirIndex(dir)]
	p.seen[dirIndex(dir)]++
	switch n % 4 {
	case 0:
		return chunk[:0], nil
	case 1:
		return append(bytes.Repeat(chunk, 9), byte(n)), nil
	case 2:
		return chunk[:len(chunk)/2], nil
	}
	return append([]byte{byte(n)}, chunk...), nil
}

// scriptConn is one side of a scripted middlebox session: reads replay
// the script one segment per call, then report EOF (or block until
// Close, for the side that stays silent); writes are captured.
type scriptConn struct {
	net.Conn // unimplemented methods; the relay never calls them

	mu     sync.Mutex
	reads  [][]byte
	silent bool
	wrote  []byte
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(reads [][]byte, silent bool) *scriptConn {
	return &scriptConn{reads: reads, silent: silent, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	if len(c.reads) > 0 {
		n := copy(p, c.reads[0])
		if c.reads[0] = c.reads[0][n:]; len(c.reads[0]) == 0 {
			c.reads = c.reads[1:]
		}
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	if !c.silent {
		return 0, io.EOF
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *scriptConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	c.wrote = append(c.wrote, p...)
	c.mu.Unlock()
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func FuzzParallelReseal(f *testing.F) {
	enc := encRecSpecs
	// Mode byte: bit 0 picks the direction, bit 1 installs the Processor.
	// Clean multi-read stream.
	f.Add(byte(0), enc(fuzzRecSpec{size: 100}, fuzzRecSpec{size: 1500, endRead: true},
		fuzzRecSpec{size: 0}, fuzzRecSpec{size: 700}))
	// Corruption mid-batch: partial output plus a MAC error.
	f.Add(byte(0), enc(fuzzRecSpec{size: 64}, fuzzRecSpec{size: 64, corrupt: true},
		fuzzRecSpec{size: 64}))
	// Corruption in a later batch: earlier batches must still commit.
	f.Add(byte(1), enc(fuzzRecSpec{size: 900, endRead: true}, fuzzRecSpec{size: 32},
		fuzzRecSpec{size: 800, corrupt: true, endRead: true}, fuzzRecSpec{size: 5}))
	// Alerts interleaved with data, both directions: a batch ended by a
	// non-data tail, then a single (corrupt) alert on its own.
	f.Add(byte(1), enc(fuzzRecSpec{size: 2, alert: true}, fuzzRecSpec{size: 1200},
		fuzzRecSpec{size: 2, alert: true, endRead: true}, fuzzRecSpec{size: 2, alert: true, corrupt: true}))
	// Processor: every job inline (the hand-off costs such sessions
	// latency, not order), payloads emptied, grown past the fragment
	// limit, shrunk and stamped, across read boundaries.
	f.Add(byte(2), enc(fuzzRecSpec{size: 300}, fuzzRecSpec{size: 1900}, fuzzRecSpec{size: 1000, endRead: true},
		fuzzRecSpec{size: 40}, fuzzRecSpec{size: 0}, fuzzRecSpec{size: 2000}, fuzzRecSpec{size: 2, alert: true},
		fuzzRecSpec{size: 77}))
	f.Add(byte(3), enc(fuzzRecSpec{size: 500}, fuzzRecSpec{size: 1900, corrupt: true}, fuzzRecSpec{size: 9}))
	// A framing error behind buffered records — more of them than one
	// pipelined job carries: every record ahead of it is relayed before
	// the fault alert.
	f.Add(byte(0), enc(fuzzRecSpec{size: 10}, fuzzRecSpec{size: 20}, fuzzRecSpec{size: 30}, fuzzRecSpec{size: 40},
		fuzzRecSpec{size: 50}, fuzzRecSpec{size: 60}, fuzzRecSpec{size: 70}, fuzzRecSpec{size: 80},
		fuzzRecSpec{size: 90}, fuzzRecSpec{size: 100, badHeader: true}))
	f.Add(byte(1), enc(fuzzRecSpec{size: 600, endRead: true}, fuzzRecSpec{size: 8}, fuzzRecSpec{size: 8},
		fuzzRecSpec{size: 8}, fuzzRecSpec{size: 8}, fuzzRecSpec{size: 8}, fuzzRecSpec{size: 8}, fuzzRecSpec{size: 8},
		fuzzRecSpec{size: 8, badHeader: true}))
	// Pass-through records between data, in one read and across reads:
	// each run leaves in one write, in stream order with the resealed
	// jobs around it, and a run that ends a read leaves before the next
	// read refills the buffer under it.
	f.Add(byte(0), enc(fuzzRecSpec{size: 40, pass: true}, fuzzRecSpec{size: 300}, fuzzRecSpec{size: 9, pass: true},
		fuzzRecSpec{size: 1000, pass: true, endRead: true}, fuzzRecSpec{size: 2000}, fuzzRecSpec{size: 5, pass: true},
		fuzzRecSpec{size: 70}))
	// A framing error behind buffered pass-through records: the records
	// read ahead of it are relayed before the fault alert.
	f.Add(byte(1), enc(fuzzRecSpec{size: 50}, fuzzRecSpec{size: 20, pass: true}, fuzzRecSpec{size: 30, pass: true},
		fuzzRecSpec{size: 40, pass: true, badHeader: true}))
	// Corruption behind a pass-through record, Processor on.
	f.Add(byte(2), enc(fuzzRecSpec{size: 30, pass: true}, fuzzRecSpec{size: 100, corrupt: true},
		fuzzRecSpec{size: 30, pass: true}))
	f.Add(byte(0), enc(poisonedGateSeed...))

	f.Fuzz(func(t *testing.T, mode byte, data []byte) { relayAgainstReference(t, mode, data) })
}

// poisonedGateSeed is seed #11: a failing first job with three
// pipelined jobs queued behind it, one per read. The gate refuses a
// start to each job the relay submits before it sees the poison, so
// none of them is opened, resealed or counted.
var poisonedGateSeed = []fuzzRecSpec{{size: 64}, {size: 64, corrupt: true, endRead: true},
	{size: 300, endRead: true}, {size: 1000}, {size: 20, endRead: true},
	{size: 700, endRead: true}, {size: 9}}

// TestPipelinePoisonedGateSkipsQueuedJobs pins RecordsPipelined on
// seed #11 to the records of the one job processed: the failing job's
// two. Its first record is the only one opened.
func TestPipelinePoisonedGateSkipsQueuedJobs(t *testing.T) {
	st := relayAgainstReference(t, 0, encRecSpecs(poisonedGateSeed...))
	if st.RecordsPipelined != 2 || st.RecordsRekeyed != 1 {
		t.Fatalf("RecordsPipelined = %d, RecordsRekeyed = %d; want 2 and 1", st.RecordsPipelined, st.RecordsRekeyed)
	}
}

// encRecSpecs encodes records as fuzz input: two size bytes and a
// flags byte each.
func encRecSpecs(specs ...fuzzRecSpec) []byte {
	var b []byte
	for _, s := range specs {
		var flags byte
		if s.alert {
			flags |= 1
		}
		if s.corrupt {
			flags |= 2
		}
		if s.endRead {
			flags |= 4
		}
		if s.badHeader {
			flags |= 8
		}
		if s.pass {
			flags |= 16
		}
		b = append(b, byte(s.size), byte(s.size>>8), flags)
	}
	return b
}

// relayAgainstReference is FuzzParallelReseal's body: it relays the
// stream data encodes through a middlebox session, checks the wire, the
// stats and the proxysig digest against the reference, and returns the
// middlebox's stats.
func relayAgainstReference(t *testing.T, mode byte, data []byte) MiddleboxStats {
	badHeader := []byte{byte(tls12.TypeApplicationData), 9, 9, 0, 0}
	_, _, headerErr := tls12.ParseRecordHeader(badHeader)
	specs := decodeRecSpecs(data)
	if len(specs) == 0 {
		t.Skip()
	}
	dir, other := DirClientToServer, DirServerToClient
	if mode&1 != 0 {
		dir, other = other, dir
	}
	var newProc func() Processor
	if mode&2 != 0 {
		newProc = func() Processor { return new(fuzzProc) }
	}

	// The plane under test and the reference share key material; the
	// source seals under whichever key the chosen direction opens.
	km := testKeyMaterial(t)
	key, iv := km.Down.C2SKey, km.Down.C2SIV
	if dir == DirServerToClient {
		key, iv = km.Up.S2CKey, km.Up.S2CIV
	}
	src, err := tls12.NewCipherState(testSuite, key, iv, 0)
	if err != nil {
		t.Fatal(err)
	}
	var proc, refProc Processor
	if newProc != nil {
		proc, refProc = newProc(), newProc()
	}
	dp, err := newDataPlane(km, proc)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefPlane(t, km, refProc)

	// Seal the stream once. The relay gets it as scripted reads, the
	// reference as records (a pass-through one as its wire bytes); a
	// clean stream ends the way TLS does, with a close_notify, which is
	// also what makes the relay wait for its pipelined jobs before the
	// transport reports EOF.
	var reads [][]byte
	var read []byte
	type item struct {
		rec  tls12.RawRecord
		pass []byte // a pass-through record's wire bytes
	}
	var items []item
	add := func(typ tls12.ContentType, plain []byte, corrupt bool) {
		sealed := src.Seal(typ, plain)
		if corrupt {
			sealed[len(sealed)/2] ^= 0x80
		}
		items = append(items, item{rec: tls12.RawRecord{Type: typ, Payload: append([]byte(nil), sealed...)}})
		read = tls12.RawRecord{Type: typ, Payload: sealed}.AppendWire(read)
	}
	closeNotify := []byte{byte(tls12.AlertLevelWarning), byte(tls12.AlertCloseNotify)}
	framingErr := false
	for _, spec := range specs {
		if spec.pass {
			wire := tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: append([]byte{7}, bytes.Repeat([]byte{0xA5}, spec.size)...)}.Marshal()
			items = append(items, item{pass: wire})
			read = append(read, wire...)
		} else if spec.alert {
			add(tls12.TypeAlert, closeNotify, spec.corrupt)
		} else {
			add(tls12.TypeApplicationData, bytes.Repeat([]byte{0x5A}, spec.size), spec.corrupt)
		}
		if spec.badHeader {
			read = append(read, badHeader...)
			framingErr = true
			break
		}
		if spec.endRead || len(read) > fuzzMaxRead {
			reads, read = append(reads, read), nil
		}
	}
	if !framingErr {
		add(tls12.TypeAlert, closeNotify, false)
	}
	reads = append(reads, read)

	// Reference: everything in stream order — runs of sealed records
	// through the reference plane, pass-through records verbatim — up
	// to the first failure; a failure (or the framing error) is
	// followed by the fatal alert, toward both neighbors, at each
	// direction's next sealing sequence.
	var want, resealed []byte
	var wantRes batchResult
	var wantRelayed int64
	var failure error
	for i := 0; i < len(items) && failure == nil; {
		if items[i].pass != nil {
			want = append(want, items[i].pass...)
			wantRelayed++
			i++
			continue
		}
		var recs []tls12.RawRecord
		for ; i < len(items) && items[i].pass == nil; i++ {
			recs = append(recs, items[i].rec)
		}
		start := len(want)
		var res batchResult
		want, res, failure = ref.reseal(dir, recs, want)
		resealed = append(resealed, want[start:]...)
		wantRes.opened += res.opened
		wantRes.appended += res.appended
	}
	if failure == nil && framingErr {
		failure = headerErr
	}
	var wantOther []byte
	if failure != nil {
		alert := []byte{byte(tls12.AlertLevelFatal), byte(alertForClass(ClassifyError(failure)))}
		want = ref.appendRecord(dir, want, tls12.TypeAlert, alert)
		wantOther = ref.appendRecord(other, nil, tls12.TypeAlert, alert)
	}

	// The session under test: data plane installed, the fuzzed
	// direction scripted, the other one silent.
	in, out := newScriptConn(reads, false), newScriptConn(nil, true)
	mb := &Middlebox{bufs: tls12.SharedRecordBufPool()}
	mb.cfg.NewProcessor = newProc
	down, up := in, out
	if dir == DirServerToClient {
		down, up = out, in
	}
	s := mb.newSession(down, up, nil)
	s.role.Store(&mbRole{mine: DirClientToServer})
	ev := &mbProxySig{s: s, c2s: sha256.New(), s2c: sha256.New()}
	s.acct = ev
	s.seedGates(dp)
	s.setDataPlane(dp, nil)
	s.relayBoth() //nolint:errcheck // which direction reports first is a race; the wire and the counters are the oracle
	s.bg.Wait()

	// A failure found when a pipelined job commits races the relay's
	// own exit: the relay goroutine sees the poisoned direction, and
	// its return closes the transports under the commit goroutine's
	// last writes — the failed job's partial output and the alerts are
	// best-effort by design (propagateFault). Whatever did reach the
	// wire must still be the reference's bytes in the reference's
	// order, so a mis-sequenced alert fails here whenever it is sent.
	raced := failure != nil && failure != headerErr
	if !bytes.Equal(out.wrote, want) && !(raced && bytes.HasPrefix(want, out.wrote)) {
		t.Fatalf("relayed stream diverges from the reference: %d bytes vs %d (failure: %v)", len(out.wrote), len(want), failure)
	}
	if !bytes.Equal(in.wrote, wantOther) && !(raced && len(in.wrote) == 0) {
		t.Fatalf("reverse direction carries %d bytes, reference %d (failure: %v)", len(in.wrote), len(wantOther), failure)
	}
	st := mb.Stats()
	if st.RecordsRekeyed != int64(wantRes.opened) || st.BytesProcessed != int64(len(resealed)-wantRes.appended*recordHeaderLen) {
		t.Fatalf("stats %+v, reference opened %d records into %d bytes of %d records", st, wantRes.opened, len(resealed), wantRes.appended)
	}
	if st.RecordsRelayed != wantRelayed {
		t.Fatalf("%d records relayed verbatim, reference %d", st.RecordsRelayed, wantRelayed)
	}
	if (st.FaultsObserved == 1) != (failure != nil) || st.FaultsObserved > 1 {
		t.Fatalf("FaultsObserved = %d (failure: %v)", st.FaultsObserved, failure)
	}
	digest, records := ev.c2s, ev.c2sRecords
	if dir == DirServerToClient {
		digest, records = ev.s2c, ev.s2cRecords
	}
	if sum := sha256.Sum256(resealed); !bytes.Equal(digest.Sum(nil), sum[:]) || records != uint64(wantRes.appended) {
		t.Fatalf("proxysig evidence covers %d records, reference %d; digest match %v",
			records, wantRes.appended, bytes.Equal(digest.Sum(nil), sum[:]))
	}
	return st
}
