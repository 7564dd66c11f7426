package core

import (
	"crypto/x509"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/enclave"
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
	cfg  MiddleboxConfig
	bufs *tls12.RecordBufPool

	// sessionSeq allocates monotonic per-session IDs.
	sessionSeq atomic.Uint64

	// planes holds each live session's host-memory data plane by
	// session ID, from installDataPlane to retire: what DumpHostMemory
	// reports. An SGX middlebox's planes live in enclave memory and are
	// not registered.
	planesMu sync.Mutex
	planes   map[uint64]*dataPlane

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

// NewMiddlebox builds a middlebox. Each session's keys live in its data
// plane: inside cfg.Enclave when it is set, otherwise in host memory —
// the distinction the adversary harness probes (threat model §3.1).
func NewMiddlebox(cfg MiddleboxConfig) (*Middlebox, error) {
	if cfg.Certificate == nil {
		return nil, errors.New("core: middlebox requires a certificate")
	}
	if cfg.Name == "" && cfg.Certificate.Leaf != nil {
		cfg.Name = cfg.Certificate.Leaf.Subject.CommonName
	}
	mb := &Middlebox{cfg: cfg, annCache: make(map[string]bool), planes: make(map[uint64]*dataPlane)}
	mb.bufs = cfg.BufPool
	if mb.bufs == nil {
		mb.bufs = tls12.SharedRecordBufPool()
	}
	return mb, nil
}

// HostPlane is one live session's data plane as a read of the
// middlebox's host memory finds it: the cipher states the relay opens
// and reseals with, per direction. They are the relay's own, not
// copies, and its goroutines may be using them: call only their
// explicit-sequence methods (OpenInPlaceAt, SealAppendAt) and Seq.
type HostPlane struct {
	OpenC2S, SealC2S, OpenS2C, SealS2C *tls12.CipherState
}

// DumpHostMemory models the infrastructure provider reading the
// middlebox's host memory (threat model §3.1): the data plane of every
// live session. An SGX middlebox's host holds only each plane's enclave
// handle, so its dump is empty; a retired plane is in no dump.
func (mb *Middlebox) DumpHostMemory() []HostPlane {
	mb.planesMu.Lock()
	defer mb.planesMu.Unlock()
	dump := make([]HostPlane, 0, len(mb.planes))
	for _, dp := range mb.planes {
		dump = append(dump, HostPlane{dp.openC2S, dp.sealC2S, dp.openS2C, dp.sealS2C})
	}
	return dump
}

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
// clock (clock.Of). A join phase that overruns DefaultHandshakeTimeout
// fails the session with a HandshakeTimeoutError naming it. The
// session's data plane is retired when the session ends.
func (mb *Middlebox) Handle(down, up net.Conn) error {
	return mb.handle(down, up, nil)
}

// HandleHosted is Handle for sessions owned by a hosting runtime: the
// session registers its force-closer and establishment signal with
// hooks. Its teardown is Handle's.
func (mb *Middlebox) HandleHosted(down, up net.Conn, hooks HostHooks) error {
	return mb.handle(down, up, hooks)
}

func (mb *Middlebox) handle(down, up net.Conn, hooks HostHooks) error {
	mb.sessions.Add(1)
	s := mb.newSession(down, up, hooks)
	// Armed before the first read: a client that connects and sends
	// nothing is bounded too.
	s.hw.enter(PhaseHelloSniff)
	defer s.hw.stop()
	if hooks != nil {
		hooks.RegisterForceClose(s.forceClose)
	}
	err := s.run()
	if te := s.hw.err(); te != nil {
		return te
	}
	return err
}

// mbSession is the per-connection relay state.
type mbSession struct {
	mb *Middlebox
	// id is the session's monotonic ID: its key in the middlebox's
	// plane registry, and the label of its pipeline goroutines.
	id uint64
	// hooks is the hosting runtime's lifecycle surface (nil when the
	// session is driven directly, e.g. by tests and examples).
	hooks   HostHooks
	estOnce sync.Once
	clock   clock.Clock // down's: the join's deadlines and warrant checks read it
	// hw bounds each phase of the join; notifyEstablished disarms it.
	hw *hsWatch

	down net.Conn
	// downR is the downstream read side: s.down, possibly preceded by
	// bytes already consumed while sniffing the ClientHello.
	downR io.Reader
	up    net.Conn

	downW sync.Mutex
	upW   sync.Mutex
	// subBufs are writeSub's Encapsulated framing buffers, one per
	// direction (dirIndex), each under that direction's write lock. A
	// held direction collects its subchannel flights there until write
	// sends them ahead of the records it forwards.
	subBufs [2][]byte
	held    [2]bool

	// role is how the session joined, published after the hello sniff;
	// nil while sniffing and when the middlebox stays out.
	role     atomic.Pointer[mbRole]
	helloRaw []byte // the sniffed primary ClientHello

	joinMu   sync.Mutex
	assigned bool
	mySub    uint8
	// maxSubS2C tracks subchannel IDs seen in the server→client
	// direction before this middlebox assigns its own (paper §3.4:
	// "assign themselves the next available subchannel ID").
	maxSubS2C int

	// The secondary session's pipe and the neighbor-keys hops' (§4.2:
	// subchannel 0 from downstream and upstream). Built with the
	// session, before anything can close it.
	secPipe, downNPipe, upNPipe *pipeBuf
	secGotData                  atomic.Bool
	// degraded marks a server-side session continuing transparently
	// after a legacy server ignored our announcement.
	degraded atomic.Bool

	// acct is the middlebox half of the negotiated accountability mode,
	// set before the data plane can install; nil on a mismatch.
	acct mbAccountability

	// dpSet is closed when the join ends: dp is live, or dpErr says why
	// not. setDataPlane is its only writer.
	dpOnce sync.Once
	dpSet  chan struct{}
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
	// closing is set by closeAll before it closes the transports: a
	// relay error after it comes from the session's own teardown, not
	// from a peer.
	closing atomic.Bool
}

// newSession builds a session's state, pipes included.
func (mb *Middlebox) newSession(down, up net.Conn, hooks HostHooks) *mbSession {
	id := mb.sessionSeq.Add(1)
	s := &mbSession{
		mb:    mb,
		id:    id,
		clock: clock.Of(down),
		down:  down,
		downR: down,
		up:    up,
		hooks: hooks,
		dpSet: make(chan struct{}),
	}
	s.hw = watchHandshake(DefaultHandshakeTimeout, s.clock, s.fail)
	s.secPipe = newPipeBuf(func(b []byte) error {
		return s.writeSub(s.role.Load().reply(), s.mySub, b)
	})
	s.downNPipe = newPipeBuf(func(b []byte) error {
		return s.writeSub(DirServerToClient, neighborSubchannel, b)
	})
	s.upNPipe = newPipeBuf(func(b []byte) error {
		return s.writeSub(DirClientToServer, neighborSubchannel, b)
	})
	return s
}

// notifyEstablished ends the join and its deadline, and tells the
// hosting runtime (if any): data plane up, or transparent relay.
func (s *mbSession) notifyEstablished() {
	s.estOnce.Do(func() {
		s.hw.stop()
		if s.hooks != nil {
			s.hooks.SessionEstablished()
		}
	})
}

// forceClose ends an in-flight session from the hosting runtime's
// drain deadline: both neighbors get a sealed close_notify first when
// per-hop keys exist, so endpoints observe an orderly close; then the
// transports drop.
func (s *mbSession) forceClose() {
	if !s.degraded.Load() {
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
		s.closing.Store(true)
		s.down.Close()
		s.up.Close()
		for _, p := range []*pipeBuf{s.secPipe, s.downNPipe, s.upNPipe} {
			p.fail(io.ErrClosedPipe)
		}
		s.setDataPlane(nil, io.ErrClosedPipe)
	})
}

// fail ends the session on err, from whichever goroutine met it first:
// a relay, a commit (its relay may be blocked reading a healthy
// transport), or a join deadline. A fault-classified error (anything
// but a clean close) means a hop died: both neighbors get a fatal alert
// before the transports drop, so endpoints blocked mid-read fail fast
// instead of waiting out their deadlines — once a session.
func (s *mbSession) fail(err error) {
	if cls := ClassifyError(err); cls.isFault() && s.faultHandled.CompareAndSwap(false, true) {
		s.mb.faultsObserved.Add(1)
		s.propagateFault(alertForClass(cls))
	}
	s.closeAll()
}

// propagateFault best-effort notifies both sides that the path died.
// After key material the alert is hop-sealed at each direction's
// committed position, behind any pipelined reseals (sealAlertOrdered),
// so it verifies at the peer. Before, a plaintext fatal alert is the
// best available signal. A session not joined — perhaps not TLS at all
// — gets nothing injected. The writes race the dying transports by
// design.
func (s *mbSession) propagateFault(desc tls12.AlertDescription) {
	if s.role.Load() == nil || s.degraded.Load() || s.alertBoth(tls12.AlertLevelFatal, desc) {
		return
	}
	plain := tls12.RawRecord{
		Type:    tls12.TypeAlert,
		Payload: []byte{byte(tls12.AlertLevelFatal), byte(desc)},
	}.Marshal()
	s.write(DirClientToServer, plain) //nolint:errcheck
	s.write(DirServerToClient, plain) //nolint:errcheck
}

// outbound returns the connection and write lock for a direction.
func (s *mbSession) outbound(dir Direction) (net.Conn, *sync.Mutex) {
	if dir == DirServerToClient {
		return s.down, &s.downW
	}
	return s.up, &s.upW
}

// write sends framed record bytes in a direction, under its write lock.
// A flight held in that direction (hold) leaves with them, in front.
func (s *mbSession) write(dir Direction, wire []byte) error {
	conn, mu := s.outbound(dir)
	mu.Lock()
	defer mu.Unlock()
	if d := dirIndex(dir); s.held[d] {
		s.held[d] = false
		s.subBufs[d] = append(s.subBufs[d], wire...)
		wire = s.subBufs[d]
	}
	_, err := conn.Write(wire)
	return err
}

// writeSub wraps inner records — a whole flight of a secondary
// session — for a subchannel and sends them in a direction, framing
// into the direction's reused buffer under its write lock. While the
// direction is held, the framed records stay in that buffer for the
// next write to carry.
func (s *mbSession) writeSub(dir Direction, sub uint8, inner []byte) error {
	conn, mu := s.outbound(dir)
	mu.Lock()
	defer mu.Unlock()
	d := dirIndex(dir)
	b := &s.subBufs[d]
	if s.held[d] {
		*b = appendEncapsulated(*b, sub, inner)
		return nil
	}
	*b = appendEncapsulated((*b)[:0], sub, inner)
	_, err := conn.Write(*b)
	return err
}

// hold makes the subchannel flights written in a direction wait for the
// next write of forwarded records there, so both leave in one transport
// write (holdServerHello).
func (s *mbSession) hold(dir Direction) {
	_, mu := s.outbound(dir)
	mu.Lock()
	d := dirIndex(dir)
	s.held[d] = true
	s.subBufs[d] = s.subBufs[d][:0]
	mu.Unlock()
}
