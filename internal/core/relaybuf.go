package core

import (
	"io"
	"sync"

	"repro/internal/tls12"
)

// relayReadBufSize sizes a recordReader's buffer: room for a few
// maximum-size records so one transport Read feeds several relay
// iterations.
const relayReadBufSize = 4 * tls12.MaxRecordWireSize

// relayReadBufs recycles recordReader buffers across sessions. At
// relayReadBufSize each, these are the largest per-connection
// allocations in the process; under session churn, allocating (and
// zeroing) one per mux and per relay direction dominated the
// allocator. The buffers hold only transport wire bytes (ciphertext
// and public handshake framing), so reuse across sessions leaks
// nothing a transport peer didn't already see.
var relayReadBufs = sync.Pool{
	New: func() any {
		b := make([]byte, relayReadBufSize)
		return &b
	},
}

// recordReader incrementally parses TLS records out of a byte stream
// through one reused buffer, so the relay loop can drain every record
// already buffered — the unit that becomes one data-plane batch and one
// write — without an allocation or an extra Read per record.
//
// Ownership: the RawRecord returned by next aliases the internal
// buffer. It stays valid until the first next call that finds no
// complete record buffered (only then may the buffer compact), so the
// drain pattern "next once, then next again while peekHeader reports a
// record" keeps every record of a batch alive together.
type recordReader struct {
	src io.Reader
	buf []byte
	bp  *[]byte // pool token; nil after release
	r   int     // parse position
	w   int     // fill position
}

func newRecordReader(src io.Reader) *recordReader {
	bp := relayReadBufs.Get().(*[]byte)
	return &recordReader{src: src, buf: *bp, bp: bp}
}

// release returns the buffer to the pool. Call only when every record
// handed out by next has been consumed (the relay and demux loops call
// it on exit, when the session direction is done).
func (rr *recordReader) release() {
	if rr.bp == nil {
		return
	}
	relayReadBufs.Put(rr.bp)
	rr.bp = nil
	rr.buf = nil
	rr.r, rr.w = 0, 0
}

// detach hands the current buffer to the caller and replaces it with a
// fresh one, copying any unparsed leftover bytes across. The pipeline
// uses it at submit: the records of the batch keep aliasing the old
// buffer, which the returned pool token now owns — the commit stage
// returns it to relayReadBufs once the batch's output is on the wire —
// while the reader continues parsing from the fresh buffer.
//
// Callers must not detach while any already-returned record that is
// NOT part of the detached batch is still live: it also aliases the
// old buffer.
func (rr *recordReader) detach() *[]byte {
	old := rr.bp
	bp := relayReadBufs.Get().(*[]byte)
	n := copy(*bp, rr.buf[rr.r:rr.w])
	rr.buf = *bp
	rr.bp = bp
	rr.r, rr.w = 0, n
	return old
}

// peekHeader parses the header at the current position without
// consuming it: what next would return without reading from the
// transport or moving already-returned records. ok is false when fewer
// than a full record's bytes are buffered; err is the framing error
// next will report for a header that does not parse.
func (rr *recordReader) peekHeader() (typ tls12.ContentType, length int, ok bool, err error) {
	if rr.w-rr.r < tls12.RecordHeaderLen {
		return 0, 0, false, nil
	}
	typ, length, err = tls12.ParseRecordHeader(rr.buf[rr.r : rr.r+tls12.RecordHeaderLen])
	if err != nil {
		return 0, 0, false, err
	}
	if rr.w-rr.r < tls12.RecordHeaderLen+length {
		return 0, 0, false, nil
	}
	return typ, length, true, nil
}

// ready reports whether next will return without reading from the
// transport (and so without compacting): a complete record, or a header
// that does not parse, is buffered.
func (rr *recordReader) ready() bool {
	_, _, ok, err := rr.peekHeader()
	return ok || err != nil
}

// next returns the next record. The returned record and wire slices
// alias the internal buffer; see the type comment for lifetime rules.
// wire is the record's full framing (header plus body), for forwarding
// without re-marshaling.
func (rr *recordReader) next() (rec tls12.RawRecord, wire []byte, err error) {
	for {
		typ, length, ok, err := rr.peekHeader()
		if err != nil {
			return tls12.RawRecord{}, nil, err
		}
		if ok {
			start := rr.r
			rr.r += tls12.RecordHeaderLen + length
			body := rr.buf[start+tls12.RecordHeaderLen : rr.r]
			return tls12.RawRecord{Type: typ, Payload: body}, rr.buf[start:rr.r], nil
		}
		// Incomplete record: compact (previously returned records are no
		// longer protected once we get here) and refill.
		if rr.r > 0 {
			copy(rr.buf, rr.buf[rr.r:rr.w])
			rr.w -= rr.r
			rr.r = 0
		}
		n, rerr := rr.src.Read(rr.buf[rr.w:])
		rr.w += n
		if n == 0 && rerr != nil {
			if rerr == io.EOF && rr.w > 0 {
				rerr = io.ErrUnexpectedEOF
			}
			return tls12.RawRecord{}, nil, rerr
		}
	}
}
