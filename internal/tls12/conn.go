package tls12

import (
	"crypto/x509"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/secmem"
	"repro/internal/timing"
)

// ConnectionState summarizes a completed handshake.
type ConnectionState struct {
	HandshakeComplete bool
	CipherSuite       uint16
	Resumed           bool
	// ResumedHop names the middlebox hop ticket this connection
	// resumed from (mbTLS chain resumption); empty for full handshakes
	// and primary resumption. Resumed secondary handshakes carry no
	// certificates, so this is how the endpoint maps the connection
	// back to the chain-ticket entry (and its cached identity).
	ResumedHop string
	// PeerCertificates is the verified (or, with InsecureSkipVerify,
	// merely parsed) peer chain, leaf first.
	PeerCertificates []*x509.Certificate
	// AttestationQuote is the raw SGX quote received during the
	// handshake, if any.
	AttestationQuote []byte
	// ClientHello is the peer's parsed ClientHello (server side only);
	// mbTLS servers use it to learn about middlebox support.
	ClientHello *ClientHello
}

// SessionKeys exports one session's record-protection material. mbTLS
// endpoints export their primary session's keys as the "bridge" key
// K(C-S) handed to the outermost middleboxes (paper Figure 4), together
// with the current sequence numbers as required by the
// MBTLSKeyMaterial format (Appendix A.1).
type SessionKeys struct {
	Suite          uint16
	ClientWriteKey []byte
	ClientWriteIV  []byte
	ServerWriteKey []byte
	ServerWriteIV  []byte
	// ClientSeq and ServerSeq are the next record sequence numbers in
	// the client-to-server and server-to-client directions.
	ClientSeq uint64
	ServerSeq uint64
}

// Wipe zeroizes the exported key material. Callers wipe a SessionKeys
// once the bridge hop built from it is installed (BridgeHopKeys aliases
// these slices, so wiping either view clears both).
func (sk *SessionKeys) Wipe() {
	if sk == nil {
		return
	}
	secmem.WipeAll(sk.ClientWriteKey, sk.ClientWriteIV, sk.ServerWriteKey, sk.ServerWriteIV)
}

// Conn is one endpoint of a TLS 1.2 session over a RecordLayer. It is
// used both for ordinary two-party TLS and, by internal/core, for the
// primary and secondary sessions of an mbTLS handshake.
type Conn struct {
	rl       *RecordLayer
	config   *Config
	isClient bool

	// closer, if non-nil, is closed with the connection (typically the
	// underlying net.Conn).
	closer io.Closer

	hsMu          sync.Mutex
	handshakeDone bool
	handshakeErr  error

	// mbTLS interleaving hooks: a client may have already sent its
	// ClientHello (shared with the primary handshake), and a server
	// (middlebox) may have already received one.
	pendingHello     *ClientHello
	pendingHelloRaw  []byte
	receivedHelloRaw []byte

	// hsBuf accumulates handshake-record payloads until a complete
	// message is available.
	hsBuf []byte

	readMu     sync.Mutex
	appBuf     []byte
	readErr    error
	peerClosed bool
	// closed is set by Close under readMu; once set, no read path may
	// touch the record layer again (its pooled read buffer has been
	// released) and any undelivered appBuf has been dropped.
	closed bool

	// kmMu guards keyMatBuf and is never held across blocking I/O:
	// readers park holding readMu indefinitely (Read has no deadline),
	// and Wipe must not queue behind them at teardown.
	kmMu      sync.Mutex
	keyMatBuf [][]byte // MBTLSKeyMaterial payloads awaiting ReadKeyMaterial

	alertMu   sync.Mutex
	sentAlert bool

	state ConnectionState

	// The key schedule, run once by setMaster (hsMu held) and wiped by
	// Wipe: masterSecret is retained for resumption tickets, keyBlock
	// (RFC 5246 §6.3) feeds both cipher states and ExportSessionKeys, and
	// masterMAC — the master-keyed PRF HMAC behind the key block and both
	// Finished values — is dropped when the handshake returns.
	masterSecret []byte
	keyBlock     []byte
	masterMAC    hash.Hash
	clientRandom [randomLen]byte
	serverRandom [randomLen]byte
}

// Client returns a client-side Conn over rl.
func Client(rl *RecordLayer, config *Config) *Conn {
	return &Conn{rl: rl, config: config, isClient: true}
}

// Server returns a server-side Conn over rl.
func Server(rl *RecordLayer, config *Config) *Conn {
	return &Conn{rl: rl, config: config}
}

// ClientWithSentHello returns a client-side Conn whose ClientHello was
// already written to the wire by the caller. mbTLS uses this twice: the
// core client writes the primary ClientHello itself (so it can attach
// the MiddleboxSupport extension and reuse the bytes), and every
// secondary session with a discovered middlebox reuses the primary
// ClientHello as its first flight (paper §3.4, P7).
func ClientWithSentHello(rl *RecordLayer, config *Config, hello *ClientHello, raw []byte) *Conn {
	return &Conn{rl: rl, config: config, isClient: true, pendingHello: hello, pendingHelloRaw: raw}
}

// ServerWithReceivedHello returns a server-side Conn that treats raw as
// the already-received ClientHello. Middleboxes use this to run their
// secondary handshake against the sniffed primary ClientHello.
func ServerWithReceivedHello(rl *RecordLayer, config *Config, raw []byte) *Conn {
	return &Conn{rl: rl, config: config, receivedHelloRaw: raw}
}

// NewClientConn dials TLS over an existing net.Conn, owning its
// lifetime.
func NewClientConn(nc net.Conn, config *Config) *Conn {
	c := Client(NewRecordLayer(nc), config)
	c.closer = nc
	return c
}

// NewServerConn accepts TLS over an existing net.Conn, owning its
// lifetime.
func NewServerConn(nc net.Conn, config *Config) *Conn {
	c := Server(NewRecordLayer(nc), config)
	c.closer = nc
	return c
}

// RecordLayer exposes the connection's record layer so mbTLS can
// install per-hop data-plane ciphers after key distribution.
func (c *Conn) RecordLayer() *RecordLayer { return c.rl }

// ConnectionState returns the post-handshake connection state.
func (c *Conn) ConnectionState() ConnectionState {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return c.state
}

// Handshake runs the handshake if it has not run yet.
func (c *Conn) Handshake() error {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return c.handshakeLocked()
}

// sw returns the configured handshake stopwatch (nil-safe).
func (c *Conn) sw() *timing.Stopwatch {
	if c.config == nil {
		return nil
	}
	return c.config.Stopwatch
}

func (c *Conn) handshakeLocked() error {
	if c.handshakeDone {
		return c.handshakeErr
	}
	c.handshakeDone = true
	c.sw().Enter()
	defer c.sw().Exit()
	if c.isClient {
		c.handshakeErr = c.clientHandshake()
	} else {
		c.handshakeErr = c.serverHandshake()
	}
	// The last flight is still buffered (writeHandshakeMsg).
	if err := c.rl.Flush(); c.handshakeErr == nil {
		c.handshakeErr = err
	}
	c.masterMAC = nil
	if c.handshakeErr == nil {
		c.state.HandshakeComplete = true
	}
	return c.handshakeErr
}

// errUnexpectedCCS reports a ChangeCipherSpec at an illegal point.
var errUnexpectedCCS = errors.New("tls12: unexpected change_cipher_spec")

// handleAlert processes an alert record payload and returns the
// resulting terminal error (nil for ignorable warnings).
func (c *Conn) handleAlert(payload []byte) error {
	if len(payload) != 2 {
		return c.fatal(AlertDecodeError, errors.New("tls12: malformed alert"))
	}
	level, desc := AlertLevel(payload[0]), AlertDescription(payload[1])
	if desc == AlertCloseNotify {
		c.peerClosed = true
		return io.EOF
	}
	if level == AlertLevelFatal {
		return &AlertError{Description: desc, Remote: true}
	}
	return nil // ignore warnings
}

// fatal sends a fatal alert (best effort) and returns an AlertError
// wrapping cause.
func (c *Conn) fatal(desc AlertDescription, cause error) error {
	c.sendAlert(AlertLevelFatal, desc)
	if cause == nil {
		return &AlertError{Description: desc}
	}
	return fmt.Errorf("%w (%s)", cause, desc)
}

// SendAlert sends a fatal alert to the peer (best effort, sealed under
// the current write cipher). Middleboxes use it to refuse a session
// with a protocol-visible reason — e.g. an expired or malformed
// accountability delegation — instead of a silent transport close.
func (c *Conn) SendAlert(desc AlertDescription) {
	c.sendAlert(AlertLevelFatal, desc)
}

func (c *Conn) sendAlert(level AlertLevel, desc AlertDescription) {
	c.alertMu.Lock()
	defer c.alertMu.Unlock()
	if c.sentAlert && level == AlertLevelFatal {
		return
	}
	if level == AlertLevelFatal || desc == AlertCloseNotify {
		c.sentAlert = true
	}
	// Best-effort: if another goroutine is wedged mid-write on a dead or
	// stalled transport it holds the record layer's write lock, and
	// queueing behind it would deadlock the teardown path that is about
	// to close that transport. Dropping the alert is always legal —
	// peers must treat transport loss as an implicit failure anyway.
	_ = c.rl.TryWriteRecord(TypeAlert, []byte{byte(level), byte(desc)})
}

// readRecord reads the next record, answering a locally detected
// record-layer violation (bad version, length overflow, decode
// failure, MAC failure) with a fatal alert before surfacing the
// error. Without this, a peer — or an intermediate middlebox relay —
// watching the reverse direction would only ever see a silent
// transport close and could not distinguish an integrity failure from
// a crash (DESIGN.md §7). Remote alerts are not echoed back.
func (c *Conn) readRecord() (Record, error) {
	rec, err := c.rl.ReadRecord()
	if err != nil {
		var ae *AlertError
		if errors.As(err, &ae) && !ae.Remote {
			c.sendAlert(AlertLevelFatal, ae.Description)
		}
	}
	return rec, err
}

// RecordCounts reports how many records this connection's record
// layer has read and written, feeding core.SessionStats.
func (c *Conn) RecordCounts() (in, out int64) { return c.rl.Counters() }

// readHandshakeMsg returns the next complete handshake message. If
// allowCCS is true and a ChangeCipherSpec record arrives on a message
// boundary, it returns ccs=true with no message.
func (c *Conn) readHandshakeMsg(allowCCS bool) (typ HandshakeType, body, raw []byte, ccs bool, err error) {
	for {
		raw, err = SplitHandshakeMsg(c.hsBuf)
		if err != nil {
			c.sendAlert(AlertLevelFatal, AlertDecodeError)
			return 0, nil, nil, false, err
		}
		if raw != nil {
			c.hsBuf = c.hsBuf[len(raw):]
			return HandshakeType(raw[0]), raw[4:], raw, false, nil
		}
		// Our flight is complete when we wait for the peer's: one
		// transport write.
		if err := c.rl.Flush(); err != nil {
			return 0, nil, nil, false, err
		}
		c.sw().Pause()
		rec, err := c.readRecord()
		c.sw().Resume()
		if err != nil {
			return 0, nil, nil, false, err
		}
		switch rec.Type {
		case TypeHandshake:
			if len(rec.Payload) == 0 {
				return 0, nil, nil, false, c.fatal(AlertDecodeError, errors.New("tls12: empty handshake record"))
			}
			c.hsBuf = append(c.hsBuf, rec.Payload...)
		case TypeAlert:
			if err := c.handleAlert(rec.Payload); err != nil {
				return 0, nil, nil, false, err
			}
		case TypeChangeCipherSpec:
			if !allowCCS || len(c.hsBuf) != 0 {
				return 0, nil, nil, false, c.fatal(AlertUnexpectedMessage, errUnexpectedCCS)
			}
			if len(rec.Payload) != 1 || rec.Payload[0] != 1 {
				return 0, nil, nil, false, c.fatal(AlertDecodeError, errors.New("tls12: malformed change_cipher_spec"))
			}
			return 0, nil, nil, true, nil
		case TypeEncapsulated, TypeMiddleboxAnnouncement, TypeKeyMaterial:
			// A legacy endpoint confronted with mbTLS record types
			// either skips them or fails the handshake (paper §3.4,
			// "Server-Side Middleboxes").
			if c.config != nil && c.config.LenientUnknownRecords {
				continue
			}
			return 0, nil, nil, false, c.fatal(AlertUnexpectedMessage,
				fmt.Errorf("tls12: unexpected %s record during handshake", rec.Type))
		default:
			return 0, nil, nil, false, c.fatal(AlertUnexpectedMessage,
				fmt.Errorf("tls12: unexpected %s record during handshake", rec.Type))
		}
	}
}

// expectHandshakeMsg reads the next handshake message and checks its
// type.
func (c *Conn) expectHandshakeMsg(want HandshakeType) (body, raw []byte, err error) {
	typ, body, raw, _, err := c.readHandshakeMsg(false)
	if err != nil {
		return nil, nil, err
	}
	if typ != want {
		return nil, nil, c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: expected %s, got %s", want, typ))
	}
	return body, raw, nil
}

// readChangeCipherSpec consumes a CCS record.
func (c *Conn) readChangeCipherSpec() error {
	_, _, _, ccs, err := c.readHandshakeMsg(true)
	if err != nil {
		return err
	}
	if !ccs {
		return c.fatal(AlertUnexpectedMessage, errors.New("tls12: expected change_cipher_spec"))
	}
	return nil
}

// writeHandshakeMsg and writeChangeCipherSpec buffer their record: a
// flight leaves in one transport write, flushed when the engine next
// waits for the peer (readHandshakeMsg) or the handshake returns.
func (c *Conn) writeHandshakeMsg(raw []byte) error {
	return c.rl.BufferRecord(TypeHandshake, raw)
}

func (c *Conn) writeChangeCipherSpec() error {
	return c.rl.BufferRecord(TypeChangeCipherSpec, []byte{1})
}

// Read reads application data, running the handshake first if needed.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	for len(c.appBuf) == 0 {
		if c.readErr != nil {
			return 0, c.readErr
		}
		rec, err := c.readRecord()
		if err != nil {
			c.readErr = err
			return 0, err
		}
		switch rec.Type {
		case TypeApplicationData:
			c.appBuf = rec.Payload
		case TypeAlert:
			if err := c.handleAlert(rec.Payload); err != nil {
				c.readErr = err
				return 0, err
			}
		case TypeKeyMaterial:
			// Retained across further ReadRecord calls, which reuse the
			// record layer's buffer — copy out of it.
			c.pushKeyMat(append([]byte(nil), rec.Payload...))
		case TypeEncapsulated, TypeMiddleboxAnnouncement:
			if c.config != nil && c.config.LenientUnknownRecords {
				continue
			}
			c.readErr = c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: unexpected %s record", rec.Type))
			return 0, c.readErr
		default:
			c.readErr = c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: unexpected %s record", rec.Type))
			return 0, c.readErr
		}
	}
	n := copy(p, c.appBuf)
	c.appBuf = c.appBuf[n:]
	return n, nil
}

// Write writes application data, running the handshake first if needed.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	if err := c.rl.WriteRecord(TypeApplicationData, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteKeyMaterial sends an MBTLSKeyMaterial record, protected by this
// session's cipher. mbTLS endpoints call this on their secondary
// sessions to hand per-hop keys to middleboxes (paper §3.4).
func (c *Conn) WriteKeyMaterial(payload []byte) error {
	if err := c.Handshake(); err != nil {
		return err
	}
	return c.rl.WriteRecord(TypeKeyMaterial, payload)
}

// ReadKeyMaterial blocks until an MBTLSKeyMaterial record arrives.
// Application data arriving first is buffered for later Reads.
func (c *Conn) ReadKeyMaterial() ([]byte, error) {
	if err := c.Handshake(); err != nil {
		return nil, err
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	// Undelivered application data may alias the record layer's reused
	// buffer; detach it before reading more records over it.
	if len(c.appBuf) > 0 {
		c.appBuf = append([]byte(nil), c.appBuf...)
	}
	for {
		if km, ok := c.popKeyMat(); ok {
			return km, nil
		}
		if c.readErr != nil {
			return nil, c.readErr
		}
		rec, err := c.readRecord()
		if err != nil {
			c.readErr = err
			return nil, err
		}
		switch rec.Type {
		case TypeKeyMaterial:
			c.pushKeyMat(append([]byte(nil), rec.Payload...))
		case TypeApplicationData:
			c.appBuf = append(c.appBuf, rec.Payload...)
		case TypeAlert:
			if err := c.handleAlert(rec.Payload); err != nil {
				c.readErr = err
				return nil, err
			}
		default:
			c.readErr = c.fatal(AlertUnexpectedMessage, fmt.Errorf("tls12: unexpected %s record", rec.Type))
			return nil, c.readErr
		}
	}
}

// Close sends a close_notify alert, zeroizes the connection's retained
// key material, and closes the underlying transport if the Conn owns
// one. After Close, ExportSessionKeys fails: the master secret is gone.
func (c *Conn) Close() error {
	c.sendAlert(AlertLevelWarning, AlertCloseNotify)
	// Close the transport before wiping: a reader parked in readRecord
	// holds readMu until the transport fails it, and Wipe needs that
	// lock — teardown must never queue behind a blocked read.
	var err error
	if c.closer != nil {
		err = c.closer.Close()
	}
	c.Wipe()
	// The write-side pooled buffers are done: the transport is closed,
	// so nothing will flush the coalesced output again.
	c.rl.ReleaseWrite()
	// The read side needs the reader lock: an undelivered appBuf aliases
	// the pooled read buffer (Read stashes rec.Payload without copying),
	// so it must be dropped before that buffer can go back to the pool,
	// and future reads must be fenced off the record layer. If a reader
	// is parked in readRecord it holds readMu until the closed transport
	// fails it; its buffer is then left to the GC — never re-pooled while
	// an alias might still be served.
	if c.readMu.TryLock() {
		c.appBuf = nil
		c.closed = true
		if c.readErr == nil {
			c.readErr = net.ErrClosed
		}
		c.readMu.Unlock()
		// Safe outside the lock: closed is set, so no read path will
		// touch the record layer again.
		c.rl.ReleaseRead()
	}
	return err
}

// Wipe zeroizes the connection's long-lived secrets: the master secret
// and the key block derived from it, and any buffered
// MBTLSKeyMaterial payloads not yet consumed by ReadKeyMaterial. It is
// called by Close and may be called early by an endpoint that has
// finished exporting keys (paper §3.1: secrets must not outlive their
// session in adversary-readable memory).
func (c *Conn) Wipe() {
	// hsMu is safe to take here: handshakes run under phase deadlines
	// (DESIGN.md §7), so it is never held indefinitely. readMu is NOT —
	// a reader parked in readRecord holds it until the transport fails,
	// which is why keyMatBuf lives under kmMu instead.
	c.hsMu.Lock()
	secmem.WipeAll(c.masterSecret, c.keyBlock)
	c.masterSecret, c.keyBlock = nil, nil
	c.hsMu.Unlock()
	c.kmMu.Lock()
	for _, p := range c.keyMatBuf {
		secmem.Wipe(p)
	}
	c.keyMatBuf = nil
	c.kmMu.Unlock()
}

// pushKeyMat and popKeyMat are the only accessors of keyMatBuf; kmMu
// is never held across blocking I/O so Wipe cannot deadlock against a
// parked reader.
func (c *Conn) pushKeyMat(p []byte) {
	c.kmMu.Lock()
	c.keyMatBuf = append(c.keyMatBuf, p)
	c.kmMu.Unlock()
}

func (c *Conn) popKeyMat() ([]byte, bool) {
	c.kmMu.Lock()
	defer c.kmMu.Unlock()
	if len(c.keyMatBuf) == 0 {
		return nil, false
	}
	km := c.keyMatBuf[0]
	c.keyMatBuf = c.keyMatBuf[1:]
	return km, true
}

// SetDeadline forwards to the underlying net.Conn when one is attached.
func (c *Conn) SetDeadline(t time.Time) error {
	if nc, ok := c.closer.(net.Conn); ok {
		return nc.SetDeadline(t)
	}
	return errors.New("tls12: no deadline support on this transport")
}

// ExportSessionKeys exports the session's record keys and current
// sequence numbers. It is only valid after a completed handshake.
func (c *Conn) ExportSessionKeys() (*SessionKeys, error) {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	if !c.state.HandshakeComplete {
		return nil, errors.New("tls12: handshake not complete")
	}
	if len(c.keyBlock) == 0 {
		return nil, errors.New("tls12: master secret already wiped")
	}
	cwKey, swKey, cwIV, swIV := splitKeyBlock(c.state.CipherSuite, append([]byte(nil), c.keyBlock...))
	sk := &SessionKeys{
		Suite:          c.state.CipherSuite,
		ClientWriteKey: cwKey,
		ClientWriteIV:  cwIV,
		ServerWriteKey: swKey,
		ServerWriteIV:  swIV,
	}
	write := c.rl.WriteCipher()
	read := c.rl.ReadCipher()
	if write == nil || read == nil {
		return nil, errors.New("tls12: record protection not active")
	}
	if c.isClient {
		sk.ClientSeq = write.Seq()
		sk.ServerSeq = read.Seq()
	} else {
		sk.ClientSeq = read.Seq()
		sk.ServerSeq = write.Seq()
	}
	return sk, nil
}

// InstallDataCiphers replaces the connection's record protection with
// mbTLS per-hop cipher states. Endpoints call this after distributing
// MBTLSKeyMaterial so their adjacent hop uses its fresh key (paper
// Figure 4) instead of the end-to-end session key.
func (c *Conn) InstallDataCiphers(read, write *CipherState) {
	c.rl.SetReadCipher(read)
	c.rl.SetWriteCipher(write)
}

// setMaster takes ownership of the master secret and runs the key
// schedule, once per connection: every later use — the cipher state
// each ChangeCipherSpec installs, ExportSessionKeys — reads keyBlock.
// The suite and both randoms are fixed by now; hsMu is held.
func (c *Conn) setMaster(master []byte) {
	suite := c.state.CipherSuite
	keyLen, err := suiteKeyLen(suite)
	if err != nil {
		panic(err) // suite validated during negotiation
	}
	c.masterSecret = master
	c.masterMAC = prfMAC(suite, master)
	c.keyBlock = keyBlock(c.masterMAC, c.clientRandom[:], c.serverRandom[:], 2*keyLen+2*suiteIVLen(suite))
}

// splitKeyBlock slices a key block into the suite's GCM keys and
// implicit IVs (RFC 5246 §6.3, MAC keys elided for AEAD).
func splitKeyBlock(suite uint16, kb []byte) (cwKey, swKey, cwIV, swIV []byte) {
	keyLen, _ := suiteKeyLen(suite) // setMaster sized kb by it
	ivLen := suiteIVLen(suite)
	cwKey, kb = kb[:keyLen], kb[keyLen:]
	swKey, kb = kb[:keyLen], kb[keyLen:]
	cwIV, kb = kb[:ivLen], kb[ivLen:]
	swIV = kb[:ivLen]
	return cwKey, swKey, cwIV, swIV
}

// AttestationReportData maps a transcript hash into the 64-byte SGX
// report data field, binding a quote to one specific handshake
// (paper §3.4, "Secure Environment Attestation").
func AttestationReportData(transcriptHash []byte) []byte {
	rd := make([]byte, 64)
	copy(rd, transcriptHash)
	return rd
}
