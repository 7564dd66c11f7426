package core

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certs"
	"repro/internal/clock"
	"repro/internal/enclave"
	"repro/internal/secmem"
	"repro/internal/timing"
	"repro/internal/tls12"
)

// Mode selects which endpoint a middlebox belongs to.
type Mode int

// Middlebox modes (paper §3.4): client-side middleboxes join when they
// see a MiddleboxSupport extension in a passing ClientHello;
// server-side middleboxes optimistically announce themselves toward the
// server.
const (
	ClientSide Mode = iota
	ServerSide
)

// String names the mode.
func (m Mode) String() string {
	if m == ClientSide {
		return "client-side"
	}
	return "server-side"
}

// MiddleboxConfig configures a Middlebox.
type MiddleboxConfig struct {
	// Name is used in logs and defaults from the certificate CN.
	Name string
	// Mode selects client-side or server-side behavior.
	Mode Mode
	// Certificate authenticates the middlebox service provider (MSP)
	// in secondary handshakes (property P3A). Required.
	Certificate *tls12.Certificate
	// CipherSuites restricts the secondary handshake's suites.
	CipherSuites []uint16
	// Enclave, when set, runs the middlebox's TLS termination and data
	// plane inside a (simulated) SGX enclave: secondary sessions
	// attest, and all key material lives in enclave memory, protected
	// from the infrastructure provider (properties P1A/P2/P3B).
	Enclave *enclave.Enclave
	// NewProcessor builds the per-session application-data transformer.
	// Nil forwards data unchanged.
	NewProcessor func() Processor
	// Stopwatch, when set, accumulates the middlebox's handshake
	// compute time (Figure 5: an mbTLS middlebox performs one TLS
	// handshake where split TLS performs two).
	Stopwatch *timing.Stopwatch
	// NeighborRoots, when set, verifies the upstream neighbor's
	// certificate during neighbor-keys hop handshakes (§4.2 mode).
	// Nil skips chain verification on that hop, leaning on the
	// endpoint-side approval that already authenticated the path.
	NeighborRoots *x509.CertPool
	// BufPool, when set, supplies the relay's record buffers from a
	// bounded host-scoped pool, so relay memory is bounded by the pool
	// rather than by session count. Nil uses the process-wide pool.
	BufPool *tls12.RecordBufPool
	// RelayPool is unused; goes when benchmark/ reopens (the frozen
	// module sets it). A pipelined job runs on its direction's commit
	// goroutine (DESIGN.md §14).
	RelayPool *RelayPool
	// TicketKeys, when set, enables chain-ticket resumption for the
	// middlebox's secondary sessions: it issues STEK-sealed hop tickets
	// named after the middlebox, and resumes returning clients that
	// present one (skipping ECDHE, signing, and attestation on that
	// hop). Host-scoped; share one rotating source (hsfast.STEK)
	// across the host's middleboxes to share its rotation schedule.
	TicketKeys tls12.TicketKeySource
	// KeyShares, when set, supplies precomputed X25519 keyshares for
	// full secondary handshakes (hsfast.KeySharePool). Host-scoped.
	KeyShares tls12.KeyShareSource
	// Accountability selects which accountability mode this middlebox
	// serves: AccountAttest (the default) or AccountProxySig. A session
	// whose endpoint negotiated the other mode is refused with a fatal
	// accountability_mismatch alert on the secondary subchannel.
	Accountability Accountability
	// AccountabilityFaults, when set, injects adversarial proxysig
	// behavior for the fault-matrix suites. Nil in production.
	AccountabilityFaults *AccountabilityFaults
}

// MiddleboxStats are cumulative data-plane counters.
type MiddleboxStats struct {
	Sessions         int64 // connections handled
	MbTLSSessions    int64 // of which joined as an mbTLS middlebox
	RecordsRelayed   int64 // records forwarded verbatim
	RecordsRekeyed   int64 // records opened and resealed on the data plane
	RecordsPipelined int64 // of those, processed by a direction's commit goroutine (the rest ran inline)
	BytesProcessed   int64 // plaintext bytes through the Processor
	AnnounceSkipped  int64 // announcements suppressed by the negative cache
	FaultsObserved   int64 // sessions torn down by a fault-classified error
	SessionsResumed  int64 // secondary handshakes resumed from hop tickets
	ProxySig         int64 // sessions joined under proxysig accountability
	EvidenceSigned   int64 // evidence statements signed for endpoints
}

// Middlebox is an mbTLS application-layer middlebox: it relays a TCP
// connection hop, joins mbTLS sessions via discovery, and processes
// application data under per-hop keys.
type Middlebox struct {
	cfg   MiddleboxConfig
	vault enclave.Vault
	bufs  *tls12.RecordBufPool

	// sessionSeq allocates monotonic per-session IDs; each session's
	// vault secrets are namespaced under "session/<id>/" so concurrent
	// sessions sharing one enclave keep per-session key isolation.
	sessionSeq atomic.Uint64

	annMu    sync.Mutex
	annCache map[string]bool // server address -> do not announce again

	sessions         atomic.Int64
	mbtlsSessions    atomic.Int64
	recordsRelayed   atomic.Int64
	recordsRekeyed   atomic.Int64
	recordsPipelined atomic.Int64
	bytesProcessed   atomic.Int64
	annSkipped       atomic.Int64
	faultsObserved   atomic.Int64
	sessionsResumed  atomic.Int64
	proxySig         atomic.Int64
	evidenceSigned   atomic.Int64
}

// NewMiddlebox builds a middlebox. Key material is stored in an
// EnclaveVault when cfg.Enclave is set, otherwise in host memory — the
// distinction the adversary harness probes (threat model §3.1).
func NewMiddlebox(cfg MiddleboxConfig) (*Middlebox, error) {
	if cfg.Certificate == nil {
		return nil, errors.New("core: middlebox requires a certificate")
	}
	if cfg.Name == "" && cfg.Certificate.Leaf != nil {
		cfg.Name = cfg.Certificate.Leaf.Subject.CommonName
	}
	mb := &Middlebox{cfg: cfg, annCache: make(map[string]bool)}
	mb.bufs = cfg.BufPool
	if mb.bufs == nil {
		mb.bufs = tls12.SharedRecordBufPool()
	}
	if cfg.Enclave != nil {
		mb.vault = enclave.NewEnclaveVault(cfg.Enclave)
	} else {
		mb.vault = enclave.NewHostVault()
	}
	return mb, nil
}

// Vault exposes where this middlebox keeps session secrets, for the
// adversary harness.
func (mb *Middlebox) Vault() enclave.Vault { return mb.vault }

// Name returns the middlebox name.
func (mb *Middlebox) Name() string { return mb.cfg.Name }

// Stats snapshots the cumulative counters.
func (mb *Middlebox) Stats() MiddleboxStats {
	return MiddleboxStats{
		Sessions:         mb.sessions.Load(),
		MbTLSSessions:    mb.mbtlsSessions.Load(),
		RecordsRelayed:   mb.recordsRelayed.Load(),
		RecordsRekeyed:   mb.recordsRekeyed.Load(),
		RecordsPipelined: mb.recordsPipelined.Load(),
		BytesProcessed:   mb.bytesProcessed.Load(),
		AnnounceSkipped:  mb.annSkipped.Load(),
		FaultsObserved:   mb.faultsObserved.Load(),
		SessionsResumed:  mb.sessionsResumed.Load(),
		ProxySig:         mb.proxySig.Load(),
		EvidenceSigned:   mb.evidenceSigned.Load(),
	}
}

// shouldAnnounce consults the negative cache (paper §3.4: a middlebox
// whose announcement a server ignored or rejected "will cache this
// information and not announce itself to this server again").
func (mb *Middlebox) shouldAnnounce(serverAddr string) bool {
	mb.annMu.Lock()
	defer mb.annMu.Unlock()
	if mb.annCache[serverAddr] {
		mb.annSkipped.Add(1)
		return false
	}
	return true
}

func (mb *Middlebox) markNoAnnounce(serverAddr string) {
	mb.annMu.Lock()
	mb.annCache[serverAddr] = true
	mb.annMu.Unlock()
}

// dataPlaneTimeout bounds each wait of a joined session for its key
// material: data that arrives first (§3.5), and the primary ServerHello.
const dataPlaneTimeout = 30 * time.Second

// HostHooks is implemented by a hosting runtime (internal/sessionhost)
// to observe a hosted session's lifecycle. Accept loops live in the
// runtime, not here: a middlebox only ever handles connections it is
// handed.
type HostHooks interface {
	// SessionEstablished is called at most once, when the session has
	// decided its participation: data plane installed, or settled into
	// a transparent/degraded relay.
	SessionEstablished()
	// RegisterForceClose hands the runtime a function that force-closes
	// the session at the drain deadline. The function seals a
	// close_notify toward both neighbors when per-hop keys exist, then
	// drops the transports; it is safe to call at any point in the
	// session's life, and more than once.
	RegisterForceClose(func())
}

// Handle relays one connection pair until either side closes. down
// faces the client, up faces the server; the session runs on down's
// clock (clock.Of). Per-session vault secrets are retained after the
// session for post-mortem inspection (the adversary harness depends on
// this); hosted sessions use HandleHosted, which wipes them.
func (mb *Middlebox) Handle(down, up net.Conn) error {
	return mb.handle(down, up, nil)
}

// HandleHosted is Handle for sessions owned by a hosting runtime: the
// session registers its force-closer and establishment signal with
// hooks, and its namespaced vault secrets are wiped at teardown (a
// long-lived host must not accrete key material for every session it
// ever served).
func (mb *Middlebox) HandleHosted(down, up net.Conn, hooks HostHooks) error {
	return mb.handle(down, up, hooks)
}

func (mb *Middlebox) handle(down, up net.Conn, hooks HostHooks) error {
	mb.sessions.Add(1)
	id := mb.sessionSeq.Add(1)
	s := &mbSession{
		mb:          mb,
		id:          id,
		clock:       clock.Of(down),
		down:        down,
		downR:       down,
		up:          up,
		hooks:       hooks,
		vaultPrefix: fmt.Sprintf("session/%d/", id),
	}
	s.dpCond = sync.NewCond(&s.dpMu)
	if hooks != nil {
		hooks.RegisterForceClose(s.forceClose)
		defer mb.vault.WipePrefix(s.vaultPrefix)
	}
	return s.run()
}

// mbSession is the per-connection relay state.
type mbSession struct {
	mb *Middlebox
	// id is the session's monotonic ID (also the vault namespace
	// number), used to label pipeline goroutines for profiling.
	id uint64
	// hooks is the hosting runtime's lifecycle surface (nil when the
	// session is driven directly, e.g. by tests and examples).
	hooks HostHooks
	// vaultPrefix namespaces this session's vault secrets
	// ("session/<id>/"), isolating concurrent sessions that share one
	// enclave.
	vaultPrefix string
	estOnce     sync.Once
	clock       clock.Clock // down's: key-material waits and warrant checks read it

	down net.Conn
	// downR is the downstream read side: s.down, possibly preceded by
	// bytes already consumed while sniffing the ClientHello.
	downR io.Reader
	up    net.Conn

	downW sync.Mutex
	upW   sync.Mutex

	mbtls    bool
	joinMu   sync.Mutex
	assigned bool
	mySub    uint8
	// maxSubS2C tracks subchannel IDs seen in the server→client
	// direction before this middlebox assigns its own (paper §3.4:
	// "assign themselves the next available subchannel ID").
	maxSubS2C int

	secPipe    *pipeBuf
	secGotData atomic.Bool
	// degraded marks a server-side session continuing transparently
	// after a legacy server ignored our announcement.
	degraded atomic.Bool

	// neighborMode and its hop-handshake pipes (§4.2 neighbor-keys):
	// subchannel-0 traffic from downstream feeds downNPipe (we play
	// the server role there); from upstream, upNPipe (client role).
	neighborMode bool
	downNPipe    *pipeBuf
	upNPipe      *pipeBuf

	helloRaw []byte

	// Accountability state. proxySig reports the negotiated mode (set
	// before the data plane can install, so commit's check is
	// ordered); acctMismatch marks a client-side session whose
	// negotiated mode differs from the configured one (decided at join
	// time, before the secondary goroutine starts). evMu guards the
	// proxysig evidence accumulators: the stored warrant, per-direction
	// running digests of resealed output, and record counts.
	proxySig     atomic.Bool
	acctMismatch bool
	evMu         sync.Mutex
	delegation   []byte
	evC2S        hash.Hash
	evS2C        hash.Hash
	evC2SRecords uint64
	evS2CRecords uint64

	dpMu   sync.Mutex
	dpCond *sync.Cond
	dp     dataPlaneHandler
	dpErr  error

	// Relay state (DESIGN.md §14). gates own each direction's sequence
	// positions and poison error; bg tracks background reapers run must
	// wait out after closeAll; faultHandled is claimed by the one caller
	// of fail that runs the fault sequence.
	gates        [2]commitGate
	bg           sync.WaitGroup
	faultHandled atomic.Bool

	closeOnce sync.Once
}

// storeSecrets namespaces a batch of session secrets into the vault —
// one enclave crossing per batch.
func (s *mbSession) storeSecrets(secrets ...enclave.Secret) {
	for i := range secrets {
		secrets[i].Name = s.vaultPrefix + secrets[i].Name
	}
	s.mb.vault.StoreSecrets(secrets...)
}

// storeHopKeys retains both hops' keys in the vault before the data
// plane is built from them.
func (s *mbSession) storeHopKeys(down, up *HopKeys) {
	s.storeSecrets(
		enclave.Secret{Name: "hop/down-c2s", Value: down.C2SKey},
		enclave.Secret{Name: "hop/down-c2s-iv", Value: down.C2SIV},
		enclave.Secret{Name: "hop/down-s2c", Value: down.S2CKey},
		enclave.Secret{Name: "hop/down-s2c-iv", Value: down.S2CIV},
		enclave.Secret{Name: "hop/up-c2s", Value: up.C2SKey},
		enclave.Secret{Name: "hop/up-c2s-iv", Value: up.C2SIV},
		enclave.Secret{Name: "hop/up-s2c", Value: up.S2CKey},
		enclave.Secret{Name: "hop/up-s2c-iv", Value: up.S2CIV})
}

// notifyEstablished tells the hosting runtime (if any) that the
// session has decided its shape: data plane up, or transparent relay.
func (s *mbSession) notifyEstablished() {
	s.estOnce.Do(func() {
		if s.hooks != nil {
			s.hooks.SessionEstablished()
		}
	})
}

// forceClose ends an in-flight session from the hosting runtime's
// drain deadline. When per-hop keys are installed, both neighbors get
// a sealed close_notify first, so endpoints observe an orderly close
// instead of a bare transport reset; then the transports drop, which
// unwinds the relay goroutines.
func (s *mbSession) forceClose() {
	if s.mbtls && !s.degraded.Load() {
		s.alertBoth(tls12.AlertLevelWarning, tls12.AlertCloseNotify)
	}
	s.closeAll()
}

// alertBoth seals an alert toward both neighbors, each at its
// direction's committed position (sealAlertOrdered), and reports
// whether per-hop keys existed to seal it under. Best effort: the
// writes race the dying transports by design.
func (s *mbSession) alertBoth(level tls12.AlertLevel, desc tls12.AlertDescription) bool {
	dp := s.dataPlaneIfReady()
	if dp == nil {
		return false
	}
	for _, dir := range bothDirections {
		s.sealAlertOrdered(dp, dir, level, desc) //nolint:errcheck
	}
	return true
}

func (s *mbSession) closeAll() {
	s.closeOnce.Do(func() {
		s.down.Close()
		s.up.Close()
		if s.secPipe != nil {
			s.secPipe.fail(io.ErrClosedPipe)
		}
		if s.downNPipe != nil {
			s.downNPipe.fail(io.ErrClosedPipe)
		}
		if s.upNPipe != nil {
			s.upNPipe.fail(io.ErrClosedPipe)
		}
		s.dpMu.Lock()
		if s.dp == nil && s.dpErr == nil {
			s.dpErr = io.ErrClosedPipe
		}
		s.dpCond.Broadcast()
		s.dpMu.Unlock()
	})
}

// writeRecord serializes and writes a raw record to one side.
func (s *mbSession) writeRecord(conn net.Conn, mu *sync.Mutex, rec tls12.RawRecord) error {
	mu.Lock()
	defer mu.Unlock()
	_, err := conn.Write(rec.Marshal())
	return err
}

// writeWire writes already-framed record bytes to one side.
func (s *mbSession) writeWire(conn net.Conn, mu *sync.Mutex, wire []byte) error {
	mu.Lock()
	defer mu.Unlock()
	_, err := conn.Write(wire)
	return err
}

// outbound returns the connection and write lock for a direction.
func (s *mbSession) outbound(dir Direction) (net.Conn, *sync.Mutex) {
	if dir == DirServerToClient {
		return s.down, &s.downW
	}
	return s.up, &s.upW
}

// forward relays a record unchanged in the given direction.
func (s *mbSession) forward(dir Direction, rec tls12.RawRecord) error {
	s.mb.recordsRelayed.Add(1)
	if dir == DirClientToServer {
		return s.writeRecord(s.up, &s.upW, rec)
	}
	return s.writeRecord(s.down, &s.downW, rec)
}

// forwardWire relays an already-framed record without re-marshaling.
func (s *mbSession) forwardWire(dir Direction, wire []byte) error {
	s.mb.recordsRelayed.Add(1)
	conn, mu := s.outbound(dir)
	return s.writeWire(conn, mu, wire)
}

// writeEncapsulated wraps an inner record for our subchannel toward the
// given side.
func (s *mbSession) writeEncapsulated(conn net.Conn, mu *sync.Mutex, inner []byte) error {
	return s.writeEncapsulatedSub(conn, mu, s.mySub, inner)
}

// writeEncapsulatedSub wraps an inner record for an explicit subchannel.
func (s *mbSession) writeEncapsulatedSub(conn net.Conn, mu *sync.Mutex, sub uint8, inner []byte) error {
	payload := make([]byte, 1+len(inner))
	payload[0] = sub
	copy(payload[1:], inner)
	return s.writeRecord(conn, mu, tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: payload})
}

// run drives the session: sniff the ClientHello, decide how to
// participate, then relay.
func (s *mbSession) run() error {
	// Registered before closeAll so it runs after it (LIFO): pipeline
	// reapers may be waiting on a commit goroutine wedged in a dead
	// transport write, which only unblocks once closeAll drops the
	// conns.
	defer s.bg.Wait()
	defer s.closeAll()

	raw, buffered, helloRaw, maxSubC2S, err := s.collectClientHello()
	if err != nil {
		// The client went away (or sent garbage then closed) before a
		// decision; flush what we saw and relay whatever remains.
		if len(raw) > 0 {
			return s.splice(raw)
		}
		return err
	}
	if helloRaw == nil {
		// Not TLS at all: a middlebox must not break unrelated
		// traffic — relay bytes transparently.
		return s.splice(raw)
	}
	s.helloRaw = helloRaw
	hello, _ := tls12.ParseClientHello(helloRaw)
	// A TLS session this middlebox stays out of (a legacy client, or a
	// server on the announcement negative-cache): the records sniffed go
	// on as they arrived, then bytes.
	transparent := func() error {
		s.mb.recordsRelayed.Add(int64(len(buffered)))
		return s.splice(raw)
	}

	switch s.mb.cfg.Mode {
	case ClientSide:
		// Join only if the client advertises mbTLS support; otherwise
		// be a transparent relay (paper §3.4: middleboxes
		// "optimistically split the TCP connection and, upon seeing
		// the extension, join the handshake").
		if hello == nil || hello.MiddleboxSupport == nil {
			return transparent()
		}
		s.mbtls = true
		s.neighborMode = hello.MiddleboxSupport.NeighborKeys
		// The client's primary hello carries the negotiated
		// accountability mode for client-side hops. A mismatch with our
		// configured mode is refused in runSecondary (the refusal alert
		// must ride our subchannel, which does not exist yet).
		if hello.MiddleboxSupport.ProxySig != (s.mb.cfg.Accountability == AccountProxySig) {
			s.acctMismatch = true
		} else if hello.MiddleboxSupport.ProxySig {
			s.proxySig.Store(true)
			s.mb.proxySig.Add(1)
		}
		if s.neighborMode {
			s.downNPipe = newPipeBuf(func(b []byte) error {
				return s.writeEncapsulatedSub(s.down, &s.downW, neighborSubchannel, b)
			})
			s.upNPipe = newPipeBuf(func(b []byte) error {
				return s.writeEncapsulatedSub(s.up, &s.upW, neighborSubchannel, b)
			})
		}
		s.mb.mbtlsSessions.Add(1)
		for _, rec := range buffered {
			if err := s.forward(DirClientToServer, rec); err != nil {
				return err
			}
		}
		// The secondary handshake starts when the primary ServerHello
		// passes through (see relay, server→client handshake case).

	case ServerSide:
		serverAddr := s.up.RemoteAddr().String()
		if hello == nil || !s.mb.shouldAnnounce(serverAddr) {
			return transparent()
		}
		if hello.MiddleboxSupport != nil && hello.MiddleboxSupport.NeighborKeys {
			// Server-side middleboxes are out of scope for the
			// neighbor-keys mode; stay transparent rather than break
			// the session.
			return transparent()
		}
		s.mbtls = true
		s.mb.mbtlsSessions.Add(1)
		// Self-assign the next subchannel ID after those used by
		// middleboxes closer to the client, whose announcements
		// precede the ClientHello.
		s.joinMu.Lock()
		s.mySub = uint8(maxSubC2S + 1)
		s.assigned = true
		s.joinMu.Unlock()
		s.secPipe = newPipeBuf(func(b []byte) error {
			return s.writeEncapsulated(s.up, &s.upW, b)
		})
		// Forward the buffer, injecting our announcement ahead of the
		// ClientHello so middleboxes closer to the server count us
		// before they self-assign.
		announced := false
		for _, rec := range buffered {
			if rec.Type == tls12.TypeHandshake && !announced {
				announced = true
				ann := tls12.RawRecord{Type: tls12.TypeMiddleboxAnnouncement, Payload: nil}
				if err := s.writeEncapsulated(s.up, &s.upW, ann.Marshal()); err != nil {
					return err
				}
			}
			if err := s.forward(DirClientToServer, rec); err != nil {
				return err
			}
		}
		go s.runSecondary(serverAddr)
	}
	return s.relayBoth()
}

// relayBoth relays both directions until the first one ends, then
// tears the session down.
func (s *mbSession) relayBoth() error {
	errc := make(chan error, 2)
	go func() { errc <- s.relay(DirClientToServer) }()
	go func() { errc <- s.relay(DirServerToClient) }()
	err := <-errc
	s.fail(err) // the first relay error decides the session's fate
	<-errc
	if err == io.EOF || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// fail ends the session on err, from whichever goroutine met it first —
// a relay returning, or a commit (the relay goroutine may be blocked
// reading a healthy transport, so the committer must act itself). A
// fault-classified error (reset, MAC damage, protocol violation —
// anything but a clean EOF) means a hop died: both neighbors are told
// with a fatal alert before the transports drop, so endpoints blocked
// mid-read fail fast on a protocol-level signal instead of waiting out
// their deadlines. That half runs at most once a session, however many
// directions and goroutines report.
func (s *mbSession) fail(err error) {
	if cls := ClassifyError(err); cls.isFault() && s.faultHandled.CompareAndSwap(false, true) {
		s.mb.faultsObserved.Add(1)
		s.propagateFault(alertForClass(cls))
	}
	s.closeAll()
}

// propagateFault best-effort notifies both sides that the path died.
// After key material the alert must be hop-sealed — a plaintext alert
// would be a MAC failure for a peer holding hop keys — and ordered
// behind any pipelined reseals: sealAlertOrdered seals at each
// direction's committed position, abandoning the reserved-but-
// uncommitted range, so the alert verifies at the peer, and poisons the
// direction so in-flight commits drop their output instead of sealing
// past it. Before key material a plaintext fatal alert is the best
// available signal (the endpoints are still in their plaintext or
// primary-protected handshake). The writes race the dying transports
// by design; losing that race just means the deadline path fires
// instead.
func (s *mbSession) propagateFault(desc tls12.AlertDescription) {
	if !s.mbtls || s.degraded.Load() || s.alertBoth(tls12.AlertLevelFatal, desc) {
		return
	}
	plain := tls12.RawRecord{
		Type:    tls12.TypeAlert,
		Payload: []byte{byte(tls12.AlertLevelFatal), byte(desc)},
	}
	s.writeRecord(s.up, &s.upW, plain)     //nolint:errcheck
	s.writeRecord(s.down, &s.downW, plain) //nolint:errcheck
}

// plausibleRecordHeader reports whether a 5-byte prefix looks like a
// TLS(-or-mbTLS) record header. Middleboxes use it to distinguish TLS
// streams (which they may join) from unrelated traffic (which they
// must relay untouched).
func plausibleRecordHeader(typ uint8, version uint16, length int) bool {
	if typ < 20 || typ > 32 {
		return false
	}
	if version < 0x0301 || version > 0x0304 {
		return false
	}
	return length <= 16384+2048
}

// collectClientHello reads bytes from the client side until either a
// complete ClientHello message is parsed (helloRaw non-nil), or the
// stream is determined not to be TLS (helloRaw nil, err nil). raw is
// everything read so far; buffered the records parsed from it.
// Encapsulated records (announcements from middleboxes closer to the
// client, in server-side mode) are counted for subchannel assignment.
// On success raw ends with the last parsed record — it is buffered's
// wire form — and the bytes read beyond it are re-attached to the
// downstream reader.
func (s *mbSession) collectClientHello() (raw []byte, buffered []tls12.RawRecord, helloRaw []byte, maxSub int, err error) {
	var hsBuf []byte
	offset := 0
	buf := make([]byte, 4096)
	for {
		// Parse as many complete records as the buffer holds.
		for len(raw)-offset >= recordHeaderLen {
			typ := raw[offset]
			version := uint16(raw[offset+1])<<8 | uint16(raw[offset+2])
			length := int(raw[offset+3])<<8 | int(raw[offset+4])
			if !plausibleRecordHeader(typ, version, length) {
				return raw, nil, nil, 0, nil // not TLS
			}
			if len(raw)-offset < recordHeaderLen+length {
				break // incomplete record
			}
			payload := raw[offset+recordHeaderLen : offset+recordHeaderLen+length]
			offset += recordHeaderLen + length
			rec := tls12.RawRecord{Type: tls12.ContentType(typ), Payload: payload}
			buffered = append(buffered, rec)
			switch rec.Type {
			case tls12.TypeEncapsulated:
				if len(payload) >= 1 && int(payload[0]) > maxSub {
					maxSub = int(payload[0])
				}
			case tls12.TypeHandshake:
				hsBuf = append(hsBuf, payload...)
				hello, herr := tls12.SplitHandshakeMsg(hsBuf)
				if herr != nil {
					// No hello this middlebox will join is that large;
					// stop buffering toward it and leave the stream to
					// its endpoints.
					return raw, nil, nil, maxSub, nil
				}
				if hello != nil {
					// Leftover bytes belong to the relay phase.
					s.setDownLeftover(raw[offset:])
					return raw[:offset], buffered, hello, maxSub, nil
				}
			default:
				// TLS framing but not a handshake opening; treat as
				// opaque traffic.
				return raw, nil, nil, maxSub, nil
			}
		}
		n, rerr := s.down.Read(buf)
		if n > 0 {
			raw = append(raw, buf[:n]...)
		}
		if rerr != nil {
			return raw, nil, nil, maxSub, rerr
		}
	}
}

// recordHeaderLen mirrors the TLS record header size.
const recordHeaderLen = 5

// setDownLeftover prepends already-read bytes to the downstream
// record stream.
func (s *mbSession) setDownLeftover(leftover []byte) {
	if len(leftover) == 0 {
		s.downR = s.down
		return
	}
	s.downR = io.MultiReader(bytes.NewReader(append([]byte(nil), leftover...)), s.down)
}

// splice relays the two sides at byte level, without interpreting
// records, after flushing the bytes already read from the client
// (non-TLS traffic, legacy clients, or servers on the announcement
// negative-cache).
func (s *mbSession) splice(initial []byte) error {
	s.notifyEstablished()
	if len(initial) > 0 {
		if err := s.writeWire(s.up, &s.upW, initial); err != nil {
			return err
		}
	}
	errc := make(chan error, 2)
	go func() { errc <- s.spliceOneWay(s.up, s.downR) }()
	go func() { errc <- s.spliceOneWay(s.down, s.up) }()
	err := <-errc
	s.closeAll()
	<-errc
	if err == io.EOF {
		return nil
	}
	return err
}

// spliceOneWay copies bytes src→dst. When the middlebox application
// lives in an enclave, every chunk still traverses it — the paper's
// forwarding-only enclave configuration (Figure 7, "No Encryption +
// Enclave"): the application receives and sends from inside the
// enclave even when it performs no cryptography.
func (s *mbSession) spliceOneWay(dst net.Conn, src io.Reader) error {
	buf := make([]byte, 32<<10)
	var inEnclave []byte
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if e := s.mb.cfg.Enclave; e != nil {
				e.Enter(func(enclave.Memory) {
					inEnclave = append(inEnclave[:0], chunk...)
				})
				chunk = inEnclave
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return werr
			}
		}
		if err != nil {
			return err
		}
	}
}

// maxRelayBatch caps how many records one data-plane job, inline or
// pipelined (and thus one pair of ecalls and one outbound write), may
// carry, bounding latency and the size of the reseal buffer. A full
// read buffer of small records still splits into several jobs; records
// of 2 KiB and up are bounded by the buffer first.
const maxRelayBatch = 32

// relayLoop pumps records in one direction, participating in the mbTLS
// handshake and data plane as required. Steady-state application data
// is drained in batches: every buffered record headed for the data
// plane is collected and crosses it as one job (pipeline.go) — handed
// to the direction's commit goroutine while the relay reads ahead, or
// run inline on this goroutine when the job must be ordered. Everything else (handshake,
// discovery, pre-key alerts) is forwarded record by record, always
// behind a flush so forwarded bytes never overtake pipelined output.
func (s *mbSession) relayLoop(dir Direction) error {
	src := s.downR
	if dir == DirServerToClient {
		src = io.Reader(s.up)
	}
	rr := newRecordReader(src)
	defer rr.release()
	// Job state, created at the first record that crosses the data plane
	// so handshake-only and non-mbTLS sessions pay nothing.
	var pl *dirPipeline
	defer func() {
		if pl != nil {
			pl.shutdown()
		}
	}()
	// A Processor needs its input in stream order (and makes the output
	// geometry unpredictable), so its sessions run every job inline.
	inlineOnly := s.mb.cfg.NewProcessor != nil
	// Reused per-direction batch, grown to the largest one seen; each
	// direction is driven by exactly one goroutine, so no locking here.
	var batch []tls12.RawRecord
	for {
		rec, wire, err := rr.next()
		if err != nil {
			// The read error may be the echo of a fault this direction's
			// commit goroutine already detected and acted on (it closes
			// the transports); surface the original fault instead of the
			// secondary close error.
			if pl != nil {
				if gerr := pl.takeErr(); gerr != nil && !errors.Is(gerr, io.ErrClosedPipe) {
					return gerr
				}
			}
			return err
		}
		batch = append(batch[:0], rec)
		inline, collect := inlineOnly, true
		dp := s.batchReady(dir, rec.Type)
		if dp == nil {
			if pl != nil {
				if err := pl.flush(); err != nil {
					return err
				}
			}
			if dp, err = s.handleRecordWire(dir, rec, wire); err != nil {
				return err
			}
			if dp == nil {
				continue
			}
			// A hop-protected alert, or data that waited out the
			// False-Start window: a one-record job, in stream order.
			inline, collect = true, false
		}
		// Fast path: drain every already-buffered data record into the
		// batch. When what follows in the buffer is not such a record —
		// a different disposition, or a header that does not parse — the
		// relay has to wait for this batch before it can deal with that
		// anyway, so the batch runs inline: everything buffered ahead of
		// a framing error is committed before the next read reports it.
		for collect {
			typ, _, ok, perr := rr.peekHeader()
			if !ok && perr == nil {
				break
			}
			if perr != nil || s.batchReady(dir, typ) == nil {
				inline = true
				break
			}
			if len(batch) == maxRelayBatch {
				break
			}
			next, _, _ := rr.next() //nolint:errcheck // peekHeader just parsed this record
			batch = append(batch, next)
		}
		if pl == nil {
			pl = newDirPipeline(s, dir)
		}
		if inline {
			err = pl.runInline(dp, batch)
		} else {
			err = pl.submit(dp, rr, batch)
		}
		if err != nil {
			return err
		}
	}
}

// batchReady returns the data plane when a record of the given type can
// take the batched fast path: steady-state application data on a
// joined, non-degraded session whose per-hop keys are already
// installed. Everything else (including the False-Start window before
// key material arrives) goes through handleRecordWire.
func (s *mbSession) batchReady(dir Direction, typ tls12.ContentType) dataPlaneHandler {
	if typ != tls12.TypeApplicationData || !s.mbtls || s.degraded.Load() {
		return nil
	}
	if s.mb.cfg.Mode == ServerSide && !s.secGotData.Load() {
		// Potential legacy-server degrade; let the slow path decide.
		return nil
	}
	return s.dataPlaneIfReady()
}

// handleRecordWire is the per-record slow path. wire is the record's
// original framing, forwarded directly when the record passes through
// unmodified; it aliases the relay's read buffer and must not be
// retained. A hop-protected record cannot be forwarded: the data plane
// is returned instead, and the caller runs the record through it.
func (s *mbSession) handleRecordWire(dir Direction, rec tls12.RawRecord, wire []byte) (dataPlaneHandler, error) {
	switch rec.Type {
	case tls12.TypeEncapsulated:
		if len(rec.Payload) < 1 {
			return nil, errors.New("core: empty Encapsulated record")
		}
		sub := rec.Payload[0]
		if sub == neighborSubchannel && s.neighborMode {
			// Hop-local neighbor handshake traffic: consumed here,
			// never forwarded (each hop has its own subchannel 0).
			if dir == DirClientToServer {
				s.downNPipe.feed(rec.Payload[1:])
			} else {
				s.upNPipe.feed(rec.Payload[1:])
			}
			return nil, nil
		}
		if s.isMine(dir, sub) {
			s.secGotData.Store(true)
			s.secPipe.feed(rec.Payload[1:])
			return nil, nil
		}
		if dir == DirServerToClient {
			s.joinMu.Lock()
			if int(sub) > s.maxSubS2C {
				s.maxSubS2C = int(sub)
			}
			s.joinMu.Unlock()
		}
		return nil, s.forwardWire(dir, wire)

	case tls12.TypeHandshake:
		if dir == DirServerToClient && s.mb.cfg.Mode == ClientSide && s.mbtls {
			if err := s.maybeJoinClientSide(); err != nil {
				return nil, err
			}
		}
		return nil, s.forwardWire(dir, wire)

	case tls12.TypeApplicationData:
		if !s.mbtls || s.degraded.Load() {
			return nil, s.forwardWire(dir, wire)
		}
		if s.mb.cfg.Mode == ServerSide && !s.secGotData.Load() && s.dataPlaneIfReady() == nil {
			// Application data is flowing but the server never spoke
			// on our subchannel: a lenient legacy server skipped the
			// announcement and the handshake proceeded without us
			// (paper §3.4). Degrade to a transparent relay and
			// remember not to announce to this server again.
			s.degraded.Store(true)
			s.notifyEstablished()
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
			return nil, s.forwardWire(dir, wire)
		}
		return s.waitDataPlane()

	case tls12.TypeAlert:
		// Before per-hop keys exist, alerts travel end-to-end under
		// the primary session (or in the clear) and are relayed;
		// afterwards they are hop-protected and must be resealed.
		if dp := s.dataPlaneIfReady(); dp != nil {
			return dp, nil
		}
		if s.mb.cfg.Mode == ServerSide && s.mbtls && dir == DirServerToClient &&
			!s.secGotData.Load() && len(rec.Payload) == 2 && rec.Payload[0] == 2 {
			// A fatal alert from a server that never spoke on our
			// subchannel: a strict legacy endpoint choked on the
			// announcement. Cache before forwarding so a client retry
			// observes the transparent behavior (paper §3.4).
			s.mb.markNoAnnounce(s.up.RemoteAddr().String())
		}
		return nil, s.forwardWire(dir, wire)

	default:
		return nil, s.forwardWire(dir, wire)
	}
}

// isMine reports whether an Encapsulated record on this direction
// belongs to this middlebox's secondary session. Client-side
// middleboxes converse with the client (records arrive client→server);
// server-side middleboxes converse with the server.
func (s *mbSession) isMine(dir Direction, sub uint8) bool {
	s.joinMu.Lock()
	defer s.joinMu.Unlock()
	if !s.mbtls || !s.assigned || sub != s.mySub {
		return false
	}
	if s.mb.cfg.Mode == ClientSide {
		return dir == DirClientToServer
	}
	return dir == DirServerToClient
}

// maybeJoinClientSide self-assigns a subchannel and injects our
// secondary ServerHello when the primary ServerHello first passes
// (paper §3.4: buffer the ServerHello, take the next available
// subchannel ID, inject, then forward).
func (s *mbSession) maybeJoinClientSide() error {
	s.joinMu.Lock()
	if s.assigned {
		s.joinMu.Unlock()
		return nil
	}
	s.mySub = uint8(s.maxSubS2C + 1)
	s.assigned = true
	firstWrite := make(chan struct{})
	s.secPipe = newPipeBuf(func(b []byte) error {
		return s.writeEncapsulated(s.down, &s.downW, b)
	})
	s.secPipe.onFirstWrite = func() { close(firstWrite) }
	held := []chan struct{}{firstWrite}
	if s.neighborMode {
		// The upstream neighbor hello goes out first too: an endpoint
		// stops looking for new subchannels once its primary handshake
		// completes, so subchannel 0 must reach the server ahead of
		// anything the client sends in reply to this ServerHello.
		neighborHello := make(chan struct{})
		s.upNPipe.onFirstWrite = func() { close(neighborHello) }
		held = append(held, neighborHello)
	}
	s.joinMu.Unlock()

	go s.runSecondary("")
	if s.neighborMode {
		go s.runNeighborHops()
	}

	// Hold the primary ServerHello until our secondary ServerHello is
	// on the wire, so middleboxes closer to the client see our
	// subchannel in use before they self-assign.
	expired := make(chan struct{})
	defer s.clock.AfterFunc(dataPlaneTimeout, func() { close(expired) }).Stop()
	for _, written := range held {
		select {
		case <-written:
		case <-expired:
			return errors.New("core: secondary handshake failed to start")
		}
	}
	return nil
}

// runSecondary performs the middlebox's secondary handshake (always in
// the server role — against the client's reused primary ClientHello on
// the client side, or against a fresh ClientHello from the server on
// the server side), then receives key material and installs the data
// plane.
func (s *mbSession) runSecondary(serverAddr string) {
	cfg := &tls12.Config{
		Certificate:  s.mb.cfg.Certificate,
		CipherSuites: s.mb.cfg.CipherSuites,
		Stopwatch:    s.mb.cfg.Stopwatch,
		KeyShares:    s.mb.cfg.KeyShares,
		Clock:        s.clock,
	}
	if s.mb.cfg.TicketKeys != nil && s.mb.cfg.Mode == ClientSide {
		// Issue and redeem hop tickets under this middlebox's name.
		// Server-side chains are built from anonymous announcements, so
		// the client has no hop ticket to offer them.
		cfg.EnableTickets = true
		cfg.TicketKeys = s.mb.cfg.TicketKeys
		cfg.HopTicketName = s.mb.cfg.Name
	}
	if e := s.mb.cfg.Enclave; e != nil {
		cfg.Quoter = func(reportData []byte) (quote []byte, err error) {
			e.Enter(func(mem enclave.Memory) {
				var q *enclave.Quote
				q, err = mem.Quote(reportData)
				if err == nil {
					quote = q.Marshal()
				}
			})
			return quote, err
		}
	}
	rl := tls12.NewRecordLayer(s.secPipe)
	var conn *tls12.Conn
	if s.mb.cfg.Mode == ClientSide {
		if s.acctMismatch {
			s.refuseAccountability(rl)
			return
		}
		conn = tls12.ServerWithReceivedHello(rl, cfg, s.helloRaw)
	} else {
		// Server-side hops negotiate accountability through the server
		// endpoint's fresh secondary ClientHello; read it here so a
		// mismatch is refused before the handshake commits.
		helloBytes, err := readHelloMessage(rl)
		if err != nil {
			if !s.secGotData.Load() && serverAddr != "" {
				// The server never spoke on our subchannel: a legacy
				// endpoint ignored the announcement.
				s.mb.markNoAnnounce(serverAddr)
			}
			s.setDataPlane(nil, fmt.Errorf("core: secondary handshake: %w", err))
			return
		}
		hello, _ := tls12.ParseClientHello(helloBytes)
		negProxySig := hello != nil && hello.MiddleboxSupport != nil && hello.MiddleboxSupport.ProxySig
		if negProxySig != (s.mb.cfg.Accountability == AccountProxySig) {
			s.refuseAccountability(rl)
			return
		}
		if negProxySig {
			s.proxySig.Store(true)
			s.mb.proxySig.Add(1)
		}
		conn = tls12.ServerWithReceivedHello(rl, cfg, helloBytes)
	}
	if err := conn.Handshake(); err != nil {
		if s.mb.cfg.Mode == ServerSide && !s.secGotData.Load() && serverAddr != "" {
			// The server never spoke on our subchannel: it is a
			// legacy endpoint that ignored (or choked on) the
			// announcement. Remember not to announce again.
			s.mb.markNoAnnounce(serverAddr)
		}
		s.setDataPlane(nil, fmt.Errorf("core: secondary handshake: %w", err))
		return
	}

	if conn.ConnectionState().Resumed {
		s.mb.sessionsResumed.Add(1)
	}
	// The secondary session lives only in this goroutine: when it
	// returns, its secrets are wiped and its pooled record buffers go back.
	defer func() { conn.Wipe(); rl.Release() }()

	// Retain the secondary session keys in the vault so the adversary
	// harness can probe what a malicious infrastructure provider
	// would find in host memory.
	if sk, err := conn.ExportSessionKeys(); err == nil {
		s.storeSecrets(
			enclave.Secret{Name: "secondary/client-write", Value: sk.ClientWriteKey},
			enclave.Secret{Name: "secondary/server-write", Value: sk.ServerWriteKey})
		sk.Wipe() // the vault cloned what it stored
	}

	if s.neighborMode {
		// Hop keys come from the neighbor handshakes, not from
		// MBTLSKeyMaterial (§4.2 mode); the secondary session's job —
		// identity, attestation, approval — is done.
		return
	}

	kmBytes, err := conn.ReadKeyMaterial()
	if err != nil {
		s.setDataPlane(nil, fmt.Errorf("core: key material: %w", err))
		return
	}
	km, err := parseKeyMaterial(kmBytes)
	secmem.Wipe(kmBytes) // parseKeyMaterial copied the keys out
	if err != nil {
		s.setDataPlane(nil, err)
		return
	}
	defer km.Wipe() // held only until the data plane's cipher states are built
	s.storeHopKeys(&km.Down, &km.Up)

	// Proxysig: the delegation warrant follows the key material on the
	// same subchannel and must be accepted before the data plane goes
	// live — a middlebox never reseals traffic it holds no warrant for.
	if s.proxySig.Load() {
		if err := s.receiveDelegation(conn); err != nil {
			s.setDataPlane(nil, err)
			return
		}
	}

	if s.installDataPlane(km) && s.proxySig.Load() {
		// Keep the secondary session alive to serve close-time evidence
		// requests; teardown fails the subchannel pipe and unwinds this
		// loop with the goroutine.
		s.serveEvidence(conn)
	}
}

// readHelloMessage assembles the first handshake message from a record
// layer (the fresh ClientHello a server endpoint sends on a
// server-side secondary subchannel), so the middlebox can inspect its
// negotiated accountability mode before committing to the handshake.
func readHelloMessage(rl *tls12.RecordLayer) ([]byte, error) {
	var buf []byte
	for {
		rec, err := rl.ReadRecord()
		if err != nil {
			return nil, err
		}
		if rec.Type != tls12.TypeHandshake {
			return nil, fmt.Errorf("core: expected handshake record, got %s", rec.Type)
		}
		buf = append(buf, rec.Payload...)
		if msg, err := tls12.SplitHandshakeMsg(buf); msg != nil || err != nil {
			return msg, err
		}
	}
}

// refuseAccountability declines a secondary session whose endpoint
// negotiated a different accountability mode than this middlebox is
// configured for: a plaintext fatal alert on our subchannel (no
// handshake ran, so there is nothing to seal under), which the
// endpoint's secondary handshake surfaces as a remote alert.
func (s *mbSession) refuseAccountability(rl *tls12.RecordLayer) {
	//nolint:errcheck // best-effort refusal; teardown follows either way
	rl.WriteRecord(tls12.TypeAlert, []byte{byte(tls12.AlertLevelFatal), byte(tls12.AlertAccountabilityMismatch)})
	s.setDataPlane(nil, &tls12.AlertError{Description: tls12.AlertAccountabilityMismatch})
}

// receiveDelegation reads and validates the endpoint's delegation
// warrant (proxysig mode): well-formed, self-signed, addressed to this
// middlebox's certificate key, and within its validity window. A valid
// warrant is stored in the session's vault namespace and acknowledged;
// an invalid one is refused with a descriptive fatal alert.
func (s *mbSession) receiveDelegation(conn *tls12.Conn) error {
	raw, err := conn.ReadKeyMaterial()
	if err != nil {
		return fmt.Errorf("core: delegation: %w", err)
	}
	kind, body, err := parseAcctFrame(raw)
	if err != nil || kind != acctFrameDelegation {
		conn.SendAlert(tls12.AlertBadCertificate)
		return errors.New("core: expected a delegation warrant after key material")
	}
	d, err := certs.ParseDelegation(body)
	if err != nil {
		conn.SendAlert(tls12.AlertBadCertificate)
		return fmt.Errorf("core: delegation: %w", err)
	}
	own, _ := s.mb.cfg.Certificate.PrivateKey.Public().(ed25519.PublicKey)
	if !d.Authorized.Equal(own) {
		conn.SendAlert(tls12.AlertBadCertificate)
		return errors.New("core: delegation authorizes a different key")
	}
	if err := d.ValidAt(s.clock.Now()); err != nil {
		conn.SendAlert(tls12.AlertCertificateExpired)
		return fmt.Errorf("core: delegation: %w", err)
	}
	deleg := append([]byte(nil), body...)
	if f := s.mb.cfg.AccountabilityFaults; f != nil && f.MutateDelegation != nil {
		deleg = f.MutateDelegation(deleg)
	}
	s.storeSecrets(enclave.Secret{Name: "acct/delegation", Value: deleg})
	s.evMu.Lock()
	s.delegation = deleg
	s.evC2S = sha256.New()
	s.evS2C = sha256.New()
	s.evMu.Unlock()
	if err := conn.WriteKeyMaterial(acctFrame(acctFrameAck, nil)); err != nil {
		return fmt.Errorf("core: delegation ack: %w", err)
	}
	return nil
}

// serveEvidence answers evidence requests on the retained secondary
// session until the session tears down (which fails the subchannel
// pipe and errors the read).
func (s *mbSession) serveEvidence(conn *tls12.Conn) {
	for {
		raw, err := conn.ReadKeyMaterial()
		if err != nil {
			return
		}
		kind, _, err := parseAcctFrame(raw)
		if err != nil || kind != acctFrameEvidenceReq {
			continue
		}
		blob, err := s.signEvidence()
		if err != nil {
			conn.SendAlert(tls12.AlertInternalError)
			return
		}
		// Counted once signed, before the write: the endpoint's Close
		// returns as soon as it has read the evidence, and a reader of
		// Stats right after must already see it.
		s.mb.evidenceSigned.Add(1)
		if err := conn.WriteKeyMaterial(acctFrame(acctFrameEvidence, blob)); err != nil {
			return
		}
	}
}

// signEvidence snapshots the session's accountability accumulators and
// signs them with the middlebox certificate key.
func (s *mbSession) signEvidence() ([]byte, error) {
	ev := &certs.Evidence{}
	s.evMu.Lock()
	ev.Delegation = append([]byte(nil), s.delegation...)
	if s.evC2S != nil {
		copy(ev.C2SDigest[:], s.evC2S.Sum(nil))
		copy(ev.S2CDigest[:], s.evS2C.Sum(nil))
	}
	ev.C2SRecords = s.evC2SRecords
	ev.S2CRecords = s.evS2CRecords
	s.evMu.Unlock()
	blob, err := certs.SignEvidence(s.mb.cfg.Certificate.PrivateKey, ev)
	if err != nil {
		return nil, err
	}
	if f := s.mb.cfg.AccountabilityFaults; f != nil && f.MutateEvidence != nil {
		blob = f.MutateEvidence(blob)
	}
	return blob, nil
}

// noteResealed feeds resealed output into the proxysig evidence
// accumulators.
func (s *mbSession) noteResealed(dir Direction, out []byte, records int) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.evC2S == nil {
		return
	}
	if dir == DirClientToServer {
		s.evC2S.Write(out)
		s.evC2SRecords += uint64(records)
	} else {
		s.evS2C.Write(out)
		s.evS2CRecords += uint64(records)
	}
}

// runNeighborHops performs both hop handshakes of the neighbor-keys
// mode — server role toward the downstream neighbor, client role
// toward the upstream one — then installs the data plane from the two
// hop sessions' keys.
func (s *mbSession) runNeighborHops() {
	downCfg := &tls12.Config{
		Certificate:  s.mb.cfg.Certificate,
		CipherSuites: s.mb.cfg.CipherSuites,
		Stopwatch:    s.mb.cfg.Stopwatch,
		Clock:        s.clock,
	}
	upCfg := &tls12.Config{
		CipherSuites: s.mb.cfg.CipherSuites,
		Stopwatch:    s.mb.cfg.Stopwatch,
		Clock:        s.clock,
	}
	if s.mb.cfg.NeighborRoots != nil {
		upCfg.RootCAs = s.mb.cfg.NeighborRoots
	} else {
		upCfg.InsecureSkipVerify = true
	}

	type res struct {
		hop *HopKeys
		err error
	}
	downCh := make(chan res, 1)
	go func() {
		hop, err := runNeighbor(tls12.Server(tls12.NewRecordLayer(s.downNPipe), downCfg), "server")
		downCh <- res{hop, err}
	}()
	up, err := runNeighbor(tls12.Client(tls12.NewRecordLayer(s.upNPipe), upCfg), "client")
	down := <-downCh
	if down.err != nil {
		err = down.err
	}
	if err != nil {
		// The hop that did complete must not outlive the failure.
		down.hop.Wipe()
		up.Wipe()
		s.setDataPlane(nil, err)
		return
	}

	s.storeHopKeys(down.hop, up)
	km := &KeyMaterial{Version: tls12.VersionTLS12, Down: *down.hop, Up: *up}
	// Wiping km also clears both hops: the struct copies alias the same
	// key slices.
	defer km.Wipe()
	s.installDataPlane(km)
}

// installDataPlane builds the session's data plane from its hop keys —
// with the session's Processor, inside the enclave when one is
// configured — and publishes it, reporting whether it went live.
func (s *mbSession) installDataPlane(km *KeyMaterial) bool {
	var proc Processor
	if s.mb.cfg.NewProcessor != nil {
		proc = s.mb.cfg.NewProcessor()
	}
	host, err := newDataPlane(km, proc)
	if err != nil {
		s.setDataPlane(nil, err)
		return false
	}
	s.seedGates(host)
	var dp dataPlaneHandler = host
	if e := s.mb.cfg.Enclave; e != nil {
		dp = installEnclaveDataPlane(e, host)
	}
	s.setDataPlane(dp, nil)
	return true
}

func (s *mbSession) setDataPlane(dp dataPlaneHandler, err error) {
	s.dpMu.Lock()
	if s.dp == nil && s.dpErr == nil {
		s.dp = dp
		s.dpErr = err
		if dp == nil && err == nil {
			s.dpErr = errors.New("core: data plane unavailable")
		}
	}
	installed := s.dp != nil
	s.dpCond.Broadcast()
	s.dpMu.Unlock()
	if installed {
		s.notifyEstablished()
	}
}

// dataPlaneIfReady returns the data plane if installed, without
// blocking.
func (s *mbSession) dataPlaneIfReady() dataPlaneHandler {
	s.dpMu.Lock()
	defer s.dpMu.Unlock()
	return s.dp
}

// waitDataPlane blocks until key material has been installed —
// application data can race ahead of the MBTLSKeyMaterial delivery
// (the False-Start-like case of §3.5).
func (s *mbSession) waitDataPlane() (dataPlaneHandler, error) {
	s.dpMu.Lock()
	defer s.dpMu.Unlock()
	if s.dp == nil && s.dpErr == nil {
		timeout := s.clock.AfterFunc(dataPlaneTimeout, func() {
			s.dpMu.Lock()
			if s.dp == nil && s.dpErr == nil {
				s.dpErr = errors.New("core: timed out waiting for key material")
			}
			s.dpCond.Broadcast()
			s.dpMu.Unlock()
		})
		defer timeout.Stop()
		for s.dp == nil && s.dpErr == nil {
			s.dpCond.Wait()
		}
	}
	if s.dpErr != nil && s.dp == nil {
		return nil, s.dpErr
	}
	return s.dp, nil
}
