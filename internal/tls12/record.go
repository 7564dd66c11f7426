package tls12

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Exported record-geometry limits, for relay and data-plane buffer
// sizing outside this package.
const (
	// MaxPlaintext is the largest record plaintext fragment (2^14).
	MaxPlaintext = maxPlaintext
	// MaxCiphertext is the largest record body accepted off the wire.
	MaxCiphertext = maxCiphertext
	// RecordHeaderLen is the record header size.
	RecordHeaderLen = recordHeaderLen
	// MaxRecordWireSize is the largest framed record: header plus
	// maximum body.
	MaxRecordWireSize = recordHeaderLen + maxCiphertext
)

// recordBufPool recycles maximum-record-size buffers across record
// layers, relay batches, and data planes, so steady-state record
// processing performs no heap allocation. It holds array pointers: a
// buffer goes back as a pointer to its own array, which boxes into the
// pool without allocating a slice header.
var recordBufPool = sync.Pool{
	New: func() any { return new(recordArray) },
}

// recordArray is one pooled buffer's backing array.
type recordArray [MaxRecordWireSize]byte

// GetRecordBuf returns a zero-length buffer with capacity for one
// maximum-size wire record. Return it with PutRecordBuf when done; it
// is also fine to keep it for the lifetime of a long-lived owner (a
// record layer does exactly that).
func GetRecordBuf() []byte {
	return recordBufPool.Get().(*recordArray)[:0]
}

// PutRecordBuf returns a buffer obtained from GetRecordBuf to the pool.
// The caller must not use b afterwards.
func PutRecordBuf(b []byte) {
	if cap(b) < MaxRecordWireSize {
		return // never pool undersized buffers
	}
	recordBufPool.Put((*recordArray)(b[:MaxRecordWireSize]))
}

// RecordBufPoolStats is a point-in-time snapshot of a RecordBufPool.
type RecordBufPoolStats struct {
	// Gets counts GetRecordBuf calls; Hits counts the subset served
	// from the bounded free list rather than a fresh allocation.
	Gets, Hits uint64
	// Retained is the number of buffers currently parked in the free
	// list; Capacity is the retention bound (0 for the shared pool,
	// whose retention the runtime manages).
	Retained, Capacity int
}

// RecordBufPool is a bounded record-buffer pool: at most the configured
// number of max-record-size buffers are retained, so a host serving N
// sessions bounds relay memory by the pool, not by session count.
// Excess Puts drop their buffer for the GC; Gets past the retained set
// allocate. The zero value (and SharedRecordBufPool) delegates to the
// process-wide unbounded pool — same call shape, no bound.
//
// The ownership discipline is the same as the package-level
// GetRecordBuf/PutRecordBuf (and is checked by the same mbtls-lint
// bufownership analyzer, which matches these methods by name).
type RecordBufPool struct {
	free chan *recordArray
	gets atomic.Uint64
	hits atomic.Uint64
}

// sharedRecordBufPool adapts the process-wide sync.Pool to the
// RecordBufPool shape for callers configured without their own pool.
var sharedRecordBufPool RecordBufPool

// SharedRecordBufPool returns a *RecordBufPool backed by the unbounded
// process-wide pool.
func SharedRecordBufPool() *RecordBufPool { return &sharedRecordBufPool }

// NewRecordBufPool returns a pool retaining at most maxRetained
// buffers (at least 1).
func NewRecordBufPool(maxRetained int) *RecordBufPool {
	if maxRetained < 1 {
		maxRetained = 1
	}
	return &RecordBufPool{free: make(chan *recordArray, maxRetained)}
}

// GetRecordBuf returns a zero-length buffer with capacity for one
// maximum-size wire record, reusing a retained buffer when one is free.
func (p *RecordBufPool) GetRecordBuf() []byte {
	p.gets.Add(1)
	if p.free == nil {
		p.hits.Add(1) // the shared pool recycles internally
		return GetRecordBuf()
	}
	select {
	case b := <-p.free:
		p.hits.Add(1)
		return b[:0]
	default:
		return make([]byte, 0, MaxRecordWireSize)
	}
}

// PutRecordBuf returns a buffer obtained from GetRecordBuf. When the
// retention bound is reached the buffer is dropped for the GC. The
// caller must not use b afterwards.
func (p *RecordBufPool) PutRecordBuf(b []byte) {
	if cap(b) < MaxRecordWireSize {
		return // never pool undersized buffers
	}
	if p.free == nil {
		PutRecordBuf(b)
		return
	}
	select {
	case p.free <- (*recordArray)(b[:MaxRecordWireSize]):
	default:
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *RecordBufPool) Stats() RecordBufPoolStats {
	return RecordBufPoolStats{
		Gets:     p.gets.Load(),
		Hits:     p.hits.Load(),
		Retained: len(p.free),
		Capacity: cap(p.free),
	}
}

// ParseRecordHeader validates a 5-byte record header and returns the
// content type and body length. The errors match ReadRawRecord's.
func ParseRecordHeader(hdr []byte) (ContentType, int, error) {
	if len(hdr) < recordHeaderLen {
		return 0, 0, fmt.Errorf("tls12: short record header (%d bytes)", len(hdr))
	}
	typ := ContentType(hdr[0])
	if !isKnownType(typ) {
		return 0, 0, fmt.Errorf("tls12: unknown record type %d: %w",
			hdr[0], &AlertError{Description: AlertDecodeError})
	}
	if binary.BigEndian.Uint16(hdr[1:3]) != VersionTLS12 {
		return 0, 0, &AlertError{Description: AlertProtocolVersion}
	}
	length := int(binary.BigEndian.Uint16(hdr[3:5]))
	if length > maxCiphertext {
		return 0, 0, &AlertError{Description: AlertRecordOverflow}
	}
	return typ, length, nil
}

// A Record is one TLS record: a content type and its (decrypted, if a
// read cipher is installed) payload.
type Record struct {
	Type    ContentType
	Payload []byte
}

// RecordLayer frames, protects, and de-protects TLS records over a byte
// stream. It is used at three places in an mbTLS deployment:
//
//   - directly over a TCP connection (ordinary TLS, or the outer mbTLS
//     stream),
//   - over a subchannel pipe, where each written record is wrapped into
//     an Encapsulated outer record by the pipe (paper §3.4, "Control
//     Messaging"),
//   - on each side of a middlebox's data plane, where per-hop
//     CipherStates installed from MBTLSKeyMaterial protect application
//     records (paper Figure 4).
//
// Reads and writes are independently safe for one concurrent reader and
// one concurrent writer; WriteRecord is additionally safe for multiple
// concurrent writers.
//
// Buffer ownership: ReadRecord decrypts into an internal pooled buffer
// and the returned payload aliases it. The payload is valid until the
// next ReadRecord call on this layer; callers that retain a payload
// across reads must copy it.
type RecordLayer struct {
	r io.Reader
	w io.Writer

	readMu sync.Mutex
	hdr    [recordHeaderLen]byte
	// readBuf is the pooled buffer records are read and decrypted into.
	readBuf []byte

	writeMu sync.Mutex
	// writeBuf coalesces framed records between flushes so one transport
	// Write carries as many records as size limits allow.
	writeBuf []byte

	// Cipher-state pointers are atomic, separate from the I/O mutexes,
	// so key export and rekeying never wait behind a reader blocked on
	// the network, and the steady-state record path takes no lock to
	// load them.
	read  atomic.Pointer[CipherState] // nil until ChangeCipherSpec / key install
	write atomic.Pointer[CipherState]

	// Record counters, feeding the SessionStats surface. recordsIn
	// counts records successfully read off the wire; recordsOut counts
	// records framed for the wire. Both depend only on the record
	// stream, not on write coalescing or batch boundaries.
	recordsIn  atomic.Int64
	recordsOut atomic.Int64
}

// NewRecordLayer returns a RecordLayer over the given stream. Both
// directions start unprotected.
func NewRecordLayer(rw io.ReadWriter) *RecordLayer {
	return &RecordLayer{r: rw, w: rw}
}

// SetReadCipher installs (or clears) record protection for inbound
// records. Pass nil to return to plaintext (never done in-protocol; used
// by tests).
func (rl *RecordLayer) SetReadCipher(cs *CipherState) { rl.read.Store(cs) }

// SetWriteCipher installs record protection for outbound records.
func (rl *RecordLayer) SetWriteCipher(cs *CipherState) { rl.write.Store(cs) }

// ReadCipher returns the current inbound CipherState (nil if plaintext).
func (rl *RecordLayer) ReadCipher() *CipherState { return rl.read.Load() }

// WriteCipher returns the current outbound CipherState.
func (rl *RecordLayer) WriteCipher() *CipherState { return rl.write.Load() }

// ReadRecord reads and, if protected, decrypts the next record. The
// returned payload aliases the layer's internal buffer; see the type
// comment for ownership rules.
func (rl *RecordLayer) ReadRecord() (Record, error) {
	rl.readMu.Lock()
	defer rl.readMu.Unlock()
	if _, err := io.ReadFull(rl.r, rl.hdr[:]); err != nil {
		return Record{}, err
	}
	typ, length, err := ParseRecordHeader(rl.hdr[:])
	if err != nil {
		return Record{}, err
	}
	if rl.readBuf == nil {
		rl.readBuf = GetRecordBuf()
	}
	payload := rl.readBuf[:length]
	if _, err := io.ReadFull(rl.r, payload); err != nil {
		return Record{}, err
	}
	if cs := rl.read.Load(); cs != nil && !typeBypassesCipher(typ) {
		payload, err = cs.OpenInPlace(typ, payload)
		if err != nil {
			return Record{}, err
		}
	}
	rl.recordsIn.Add(1)
	return Record{Type: typ, Payload: payload}, nil
}

// Counters reports how many records this layer has read off the wire
// and framed for it since creation.
func (rl *RecordLayer) Counters() (in, out int64) {
	return rl.recordsIn.Load(), rl.recordsOut.Load()
}

// writeFlushLimit caps how many framed bytes accumulate before a flush.
// It must stay below maxCiphertext so a coalesced Write — a record's
// fragments, or a buffered handshake flight — wrapped into a single
// Encapsulated record by a subchannel pipe (one extra byte for the
// subchannel ID), still fits an outer record body.
const writeFlushLimit = maxCiphertext - 1

// WriteRecord frames, protects, and writes a record. Oversized payloads
// are split into maximum-size fragments (only legal for stream types;
// handshake and application data both are). Fragments are coalesced
// into as few transport Writes as the record-size limits allow, and
// everything is flushed before WriteRecord returns — including records
// BufferRecord left in the buffer, which go out ahead of this one in
// the same Write.
func (rl *RecordLayer) WriteRecord(typ ContentType, payload []byte) error {
	rl.writeMu.Lock()
	defer rl.writeMu.Unlock()
	if err := rl.appendRecordLocked(typ, payload); err != nil {
		return err
	}
	return rl.flushLocked()
}

// BufferRecord frames and protects a record like WriteRecord but leaves
// it in the write buffer, so the records of one handshake flight leave
// in one transport Write at the next Flush (or WriteRecord). The record
// is sealed now, under the write cipher installed now. The buffer is
// flushed early only when the next record would push it past
// writeFlushLimit.
func (rl *RecordLayer) BufferRecord(typ ContentType, payload []byte) error {
	rl.writeMu.Lock()
	defer rl.writeMu.Unlock()
	return rl.appendRecordLocked(typ, payload)
}

// Flush writes whatever BufferRecord has buffered, in one transport
// Write; it does nothing when the buffer is empty.
func (rl *RecordLayer) Flush() error {
	rl.writeMu.Lock()
	defer rl.writeMu.Unlock()
	return rl.flushLocked()
}

// Push is Flush for a flight the peer should see before the writer next
// waits for it: a transport that holds writes back (an mbTLS mux, corked
// while a session establishes) sends what it holds, when it has a Push
// method to ask it by.
func (rl *RecordLayer) Push() error {
	rl.writeMu.Lock()
	defer rl.writeMu.Unlock()
	if err := rl.flushLocked(); err != nil {
		return err
	}
	if p, ok := rl.w.(interface{ Push() error }); ok {
		return p.Push()
	}
	return nil
}

// TryWriteRecord is WriteRecord, except it gives up immediately when
// another writer already holds the layer. Teardown paths use it for
// best-effort alerts: a goroutine wedged mid-Write on a stalled
// transport holds the write lock, and a Close that queued behind it
// would deadlock — the transport close that would unwedge the writer
// is sequenced after the alert. Reports whether the record was
// written.
func (rl *RecordLayer) TryWriteRecord(typ ContentType, payload []byte) bool {
	if !rl.writeMu.TryLock() {
		return false
	}
	defer rl.writeMu.Unlock()
	if err := rl.appendRecordLocked(typ, payload); err != nil {
		return false
	}
	return rl.flushLocked() == nil
}

// appendRecordLocked fragments one payload into the write buffer,
// flushing whenever the coalescing limit would be exceeded.
func (rl *RecordLayer) appendRecordLocked(typ ContentType, payload []byte) error {
	for first := true; first || len(payload) > 0; first = false {
		frag := payload
		if len(frag) > maxPlaintext {
			frag = frag[:maxPlaintext]
		}
		payload = payload[len(frag):]
		if err := rl.appendFragmentLocked(typ, frag); err != nil {
			return err
		}
	}
	return nil
}

func (rl *RecordLayer) appendFragmentLocked(typ ContentType, frag []byte) error {
	projected := recordHeaderLen + len(frag) + sealOverhead
	if len(rl.writeBuf) > 0 && len(rl.writeBuf)+projected > writeFlushLimit {
		if err := rl.flushLocked(); err != nil {
			return err
		}
	}
	if rl.writeBuf == nil {
		rl.writeBuf = GetRecordBuf()
	}
	start := len(rl.writeBuf)
	rl.writeBuf = append(rl.writeBuf, byte(typ), byte(VersionTLS12>>8), byte(VersionTLS12&0xff), 0, 0)
	if cs := rl.write.Load(); cs != nil && !typeBypassesCipher(typ) {
		rl.writeBuf = cs.SealAppend(rl.writeBuf, typ, frag)
	} else {
		rl.writeBuf = append(rl.writeBuf, frag...)
	}
	body := len(rl.writeBuf) - start - recordHeaderLen
	if body > maxCiphertext {
		rl.writeBuf = rl.writeBuf[:start]
		return &AlertError{Description: AlertRecordOverflow}
	}
	binary.BigEndian.PutUint16(rl.writeBuf[start+3:start+5], uint16(body))
	rl.recordsOut.Add(1)
	return nil
}

// flushLocked writes the coalesced records in one transport Write.
func (rl *RecordLayer) flushLocked() error {
	if len(rl.writeBuf) == 0 {
		return nil
	}
	_, err := rl.w.Write(rl.writeBuf)
	rl.writeBuf = rl.writeBuf[:0]
	return err
}

// Release returns the layer's pooled buffers. Call only when the layer
// is done: after the transport is closed and no ReadRecord payload is
// still referenced (payloads alias the read buffer). Lock acquisition
// is best-effort — a reader or writer still parked on dead transport
// I/O holds its mutex, and its buffer is then simply left to the GC
// rather than deadlocking teardown. Safe to call more than once.
func (rl *RecordLayer) Release() {
	rl.ReleaseWrite()
	rl.ReleaseRead()
}

// ReleaseWrite returns the write-side coalescing buffer to the pool.
// Safe whenever no further write will flush it; a writer still parked
// on dead transport I/O keeps its buffer (left to the GC).
func (rl *RecordLayer) ReleaseWrite() {
	if rl.writeMu.TryLock() {
		if rl.writeBuf != nil {
			PutRecordBuf(rl.writeBuf)
			rl.writeBuf = nil
		}
		rl.writeMu.Unlock()
	}
}

// ReleaseRead returns the pooled read buffer. The caller must guarantee
// that no ReadRecord payload is still referenced — every payload this
// layer has handed out aliases that buffer — and that no further
// ReadRecord call is coming. A reader still parked on dead transport
// I/O holds readMu, in which case the buffer is left to the GC rather
// than re-pooled while the reader might still stash an alias.
func (rl *RecordLayer) ReleaseRead() {
	if rl.readMu.TryLock() {
		if rl.readBuf != nil {
			PutRecordBuf(rl.readBuf)
			rl.readBuf = nil
		}
		rl.readMu.Unlock()
	}
}

// RawRecord is an undecrypted record as read off the wire, with its
// 5-byte header preserved. Middleboxes relay primary-session records
// they cannot (and must not) decrypt in this form.
type RawRecord struct {
	Type    ContentType
	Payload []byte // record body, still protected if the sender protects it
}

// AppendWire appends the wire form of the raw record to dst.
func (r RawRecord) AppendWire(dst []byte) []byte {
	var hdr [recordHeaderLen]byte
	hdr[0] = byte(r.Type)
	binary.BigEndian.PutUint16(hdr[1:3], VersionTLS12)
	binary.BigEndian.PutUint16(hdr[3:5], uint16(len(r.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Payload...)
}

// Marshal reassembles the wire form of the raw record.
func (r RawRecord) Marshal() []byte {
	return r.AppendWire(make([]byte, 0, recordHeaderLen+len(r.Payload)))
}

// ReadRawRecord reads the next record off r without applying record
// protection, returning the body exactly as received in a freshly
// allocated buffer. It reads r directly and touches no RecordLayer
// state.
func ReadRawRecord(r io.Reader) (RawRecord, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return RawRecord{}, err
	}
	typ, length, err := ParseRecordHeader(hdr[:])
	if err != nil {
		return RawRecord{}, err
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return RawRecord{}, err
	}
	return RawRecord{Type: typ, Payload: payload}, nil
}
