// Package sessionhost is the shared per-connection lifecycle runtime
// for every mbTLS network role. The paper's evaluation (§5) treats a
// middlebox as a long-lived service relaying many sessions at once;
// this package is where that service shape lives, so that
// cmd/mbtls-proxy, cmd/mbtls-server, and the netsim-driven tests stop
// duplicating accept loops and instead share one implementation of:
//
//   - bounded admission: one semaphore of MaxSessions slots.
//     Connections beyond the cap are refused with a typed OverloadError
//     (and an overloaded alert on the wire) rather than queued without
//     bound;
//   - a handshake gate: at most 8 × GOMAXPROCS sessions run their
//     establishment concurrently; later admissions queue FIFO,
//     host-wide, which bounds handshake tail latency under bursts
//     instead of letting every admitted session contend at once;
//   - a session registry: one mutex-guarded map, IDs strictly
//     increasing in admission order, per-session state (handshaking →
//     established → draining → closed);
//   - graceful drain: Shutdown refuses new admissions, waits for the
//     in-flight sessions, and force-closes survivors at the deadline
//     (sealed close_notify when hop keys exist, so endpoints see an
//     orderly close instead of a reset);
//   - lock-free metrics: every counter and gauge is a host-level
//     atomic that Snapshot reads without taking the registry lock
//     (plus the SessionStats / MiddleboxStats surfaces);
//   - a host-scoped record-buffer pool, bounding relay memory by the
//     pool rather than by session count.
package sessionhost

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hsfast"
	"repro/internal/tls12"
)

// State is a registered session's lifecycle state.
type State int32

// Session lifecycle states, in order.
const (
	// StateHandshaking covers admission through session establishment.
	StateHandshaking State = iota
	// StateEstablished is the steady state: data plane installed (or
	// the session settled into a transparent relay).
	StateEstablished
	// StateDraining marks a session that was in flight when Shutdown
	// began; it runs to completion or to the drain deadline.
	StateDraining
	// StateClosed is terminal.
	StateClosed
)

// Handler runs one admitted connection to completion. The connection
// is closed by the host when Serve returns; Serve should use ctl to
// report establishment and register a force-closer so graceful drain
// can end the session cleanly at the deadline.
type Handler interface {
	Serve(ctl *Control, conn net.Conn) error
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctl *Control, conn net.Conn) error

// Serve implements Handler.
func (f HandlerFunc) Serve(ctl *Control, conn net.Conn) error { return f(ctl, conn) }

// Defaults for Config fields left zero.
const (
	DefaultMaxSessions  = 256
	DefaultDrainTimeout = 10 * time.Second
)

// handshakesPerProc sizes the handshake gate, per GOMAXPROCS: sessions
// concurrently running establishment (admitted sessions beyond it queue
// FIFO before their handler starts). Enough concurrency to keep every
// core busy through a handshake's round trips, small enough that a
// burst of admissions queues instead of thrashing. The gate relies on
// the configured handshake timeouts to reclaim slots from wedged peers.
const handshakesPerProc = 8

// Config configures a Host.
type Config struct {
	// Name identifies the host in typed rejection errors and metrics.
	Name string
	// MaxSessions caps concurrent sessions; connections beyond the cap
	// are refused with OverloadError. Zero means DefaultMaxSessions.
	MaxSessions int
	// Shards is unused; goes when benchmark/ reopens (the frozen module
	// sets it). The host keeps one registry.
	Shards int
	// DrainTimeout bounds Close's implicit drain. Zero means
	// DefaultDrainTimeout. (Shutdown takes its deadline from its
	// context instead.)
	DrainTimeout time.Duration
	// Handler runs each admitted connection. Required.
	Handler Handler
	// BufPool is the host-scoped record-buffer pool handed to relay
	// code (see Host.BufPool). Nil allocates a bounded pool sized to
	// MaxSessions.
	BufPool *tls12.RecordBufPool
	// RelayPool is unused; goes when benchmark/ reopens (the frozen
	// module sets it). The relay has no worker pool.
	RelayPool *core.RelayPool
	// MiddleboxStats, when set, is snapshotted into Metrics so a host
	// fronting a Middlebox aggregates both stats surfaces in one
	// place.
	MiddleboxStats func() core.MiddleboxStats
	// KeySharePool, TicketKeys, and VerifyCache are the host-scoped
	// handshake fast-path resources (see internal/hsfast). The host
	// does not consume them itself — the caller wires the same
	// instances into its MiddleboxConfig / tls12.Config — but
	// registering them here folds their hit rates and rotation counts
	// into Metrics, one stats surface per host.
	KeySharePool *hsfast.KeySharePool
	TicketKeys   *hsfast.STEK
	VerifyCache  *hsfast.VerifyCache
	// Logf, when set, receives one line per session teardown and per
	// refused connection.
	Logf func(format string, args ...any)
}

// Host is the per-connection lifecycle runtime. Create with New, feed
// with Serve (own the accept loop) or Submit (bring your own), stop
// with Shutdown or Close.
type Host struct {
	cfg  Config
	bufs *tls12.RecordBufPool
	// sem holds the MaxSessions admission slots.
	sem chan struct{}
	// gate bounds concurrent handshakes. Sessions queue here FIFO before
	// their handler starts, which keeps handshake latency ordered
	// instead of letting every admitted session thrash the CPU at once.
	gate chan struct{}

	// draining flips when drain begins; drainCh closes at the same
	// moment so handlers can select on it.
	draining atomic.Bool
	drainCh  chan struct{}

	// mu guards the session map, the ID counter and wg admission
	// ordering; the counters and gauges below are atomics Snapshot
	// reads without it.
	mu       sync.Mutex
	sessions map[uint64]*session
	lastID   uint64
	wg       sync.WaitGroup

	accepted        atomic.Uint64
	completed       atomic.Uint64
	failed          atomic.Uint64
	overloaded      atomic.Uint64
	refusedDraining atomic.Uint64
	forceClosed     atomic.Uint64
	// Gauges, moved at the state transitions: active from register to
	// teardown, handshaking while a session's state is StateHandshaking.
	active      atomic.Int64
	handshaking atomic.Int64
	// drainTime is the first Shutdown's duration in nanoseconds.
	drainTime atomic.Int64

	// Aggregated core.SessionStats deltas reported via
	// Control.ReportStats.
	recordsRelayed   atomic.Int64
	reseals          atomic.Int64
	faultsObserved   atomic.Int64
	resumedPrimary   atomic.Int64
	resumedHops      atomic.Int64
	attestSessions   atomic.Int64
	proxySigSessions atomic.Int64

	lmu       sync.Mutex
	listeners map[net.Listener]struct{}
	closed    bool

	// lingering counts refused connections reject is still holding.
	lingering atomic.Int32
}

// New builds a Host.
func New(cfg Config) (*Host, error) {
	if cfg.Handler == nil {
		return nil, errors.New("sessionhost: config requires a Handler")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	bufs := cfg.BufPool
	if bufs == nil {
		// The pool retains two buffers per concurrent session. That is
		// not a session's peak: a relay direction holds up to
		// pipelineDepth+1 reseal buffers (core/pipeline.go) while a
		// burst is in flight, and what exceeds the pool's capacity is
		// allocation the GC reclaims.
		bufs = tls12.NewRecordBufPool(2 * cfg.MaxSessions)
	}
	return &Host{
		cfg:       cfg,
		bufs:      bufs,
		sem:       make(chan struct{}, cfg.MaxSessions),
		gate:      make(chan struct{}, handshakesPerProc*runtime.GOMAXPROCS(0)),
		drainCh:   make(chan struct{}),
		sessions:  make(map[uint64]*session),
		listeners: make(map[net.Listener]struct{}),
	}, nil
}

// Name returns the configured host name.
func (h *Host) Name() string { return h.cfg.Name }

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// Serve accepts connections from ln and submits each to the session
// pool until ln fails or the host shuts down. Refused connections
// (overload, draining) are answered with a plaintext fatal alert
// before closing, so a dialing mbTLS client observes a typed
// ClassOverload failure instead of a bare reset. Serve returns nil
// when the listener was closed by Shutdown/Close.
func (h *Host) Serve(ln net.Listener) error {
	h.lmu.Lock()
	if h.closed {
		h.lmu.Unlock()
		ln.Close()
		return errors.New("sessionhost: host is closed")
	}
	h.listeners[ln] = struct{}{}
	h.lmu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			h.lmu.Lock()
			delete(h.listeners, ln)
			closed := h.closed
			h.lmu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if err := h.Submit(conn); err != nil {
			h.reject(conn, err)
		}
	}
}

// ServeListeners runs one Serve loop per listener and waits for all of
// them, returning the errors of the loops that failed. It pairs with
// tcpx.Transport.ListenShards: a host accepting on N SO_REUSEPORT
// listeners gets kernel-spread accept loops with no shared accept
// lock. If one loop fails while the host is still up, the sibling
// listeners are closed so the failure surfaces immediately instead of
// the host serving on part of its listeners indefinitely.
func (h *Host) ServeListeners(lns []net.Listener) error {
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make([]error, len(lns))
	for i, ln := range lns {
		wg.Add(1)
		go func(i int, ln net.Listener) {
			defer wg.Done()
			err := h.Serve(ln)
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					for j, other := range lns {
						if j != i {
							other.Close()
						}
					}
				} else if errors.Is(err, net.ErrClosed) {
					// Torn down above after the first failure; the
					// cascade is not itself an error.
					err = nil
				}
			}
			errs[i] = err
		}(i, ln)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Submit admits one connection into the session pool, spawning its
// handler on a tracked goroutine. It returns a typed DrainingError or
// OverloadError (both ClassOverload) when the connection is refused,
// in which case the caller keeps ownership of conn.
func (h *Host) Submit(conn net.Conn) error {
	if h.draining.Load() {
		h.refusedDraining.Add(1)
		return &core.DrainingError{Host: h.cfg.Name}
	}
	select {
	case h.sem <- struct{}{}:
	default:
		h.overloaded.Add(1)
		return &core.OverloadError{Host: h.cfg.Name, Active: h.cfg.MaxSessions, Max: h.cfg.MaxSessions}
	}
	s := &session{host: h, conn: conn}
	if !h.register(s) {
		// Raced with Shutdown between the slot claim and registration.
		return &core.DrainingError{Host: h.cfg.Name}
	}
	go h.run(s)
	return nil
}

// register admits s into the registry under a claimed slot. It returns
// false when the host began draining, in which case the slot is
// released and the session was never registered.
func (h *Host) register(s *session) bool {
	h.mu.Lock()
	if h.draining.Load() {
		h.mu.Unlock()
		h.refusedDraining.Add(1)
		<-h.sem
		return false
	}
	h.lastID++
	s.id = h.lastID
	h.active.Add(1)
	h.handshaking.Add(1)
	h.sessions[s.id] = s
	h.wg.Add(1)
	h.mu.Unlock()
	h.accepted.Add(1)
	return true
}

// run drives one admitted session to completion on its own goroutine.
func (h *Host) run(s *session) {
	defer h.wg.Done()
	// FIFO handshake gate: the expensive establishment work starts
	// only when a gate slot frees. During drain the gate is bypassed —
	// the handler fails fast against a closing session and must not
	// queue behind the deadline.
	select {
	case h.gate <- struct{}{}:
		s.gated.Store(true)
	case <-h.drainCh:
	}
	err := h.cfg.Handler.Serve(&Control{s: s}, s.conn)
	s.conn.Close()
	s.releaseGate()
	if State(s.state.Swap(int32(StateClosed))) == StateHandshaking {
		h.handshaking.Add(-1)
	}
	cls := core.ClassifyError(err)
	h.mu.Lock()
	delete(h.sessions, s.id)
	h.mu.Unlock()
	h.active.Add(-1)
	if cls == core.ClassOK || cls == core.ClassCleanClose {
		h.completed.Add(1)
	} else {
		h.failed.Add(1)
	}
	<-h.sem
	if cls != core.ClassOK {
		h.logf("sessionhost %s: session %d closed: %s (%v)", h.cfg.Name, s.id, cls, err)
	}
}

// Refusal limits: a refused connection is kept for at most
// rejectLinger, and at most maxLingering of them at once — past that a
// refusal closes at once, so a flood of refusals stays cheap.
const (
	rejectLinger = time.Second
	maxLingering = 64
)

// reject answers a refused connection with the matching plaintext
// fatal alert, then closes it — after the peer's first record has been
// read and dropped, off the accept loop. Closing right behind the alert
// races the peer's ClientHello: a peer that writes into the closed
// connection sees a write error (netsim) or a reset that discards the
// unread alert (TCP), not the refusal. The wait is bounded by
// rejectLinger and by one record's length.
func (h *Host) reject(conn net.Conn, err error) {
	desc := tls12.AlertOverloaded
	var de *core.DrainingError
	if errors.As(err, &de) {
		desc = tls12.AlertDraining
	}
	rec := tls12.RawRecord{
		Type:    tls12.TypeAlert,
		Payload: []byte{byte(tls12.AlertLevelFatal), byte(desc)},
	}
	conn.SetDeadline(clock.Of(conn).Now().Add(rejectLinger)) //nolint:errcheck
	conn.Write(rec.Marshal())                                //nolint:errcheck
	h.logf("sessionhost %s: refused connection: %v", h.cfg.Name, err)
	if h.lingering.Add(1) > maxLingering {
		h.lingering.Add(-1)
		conn.Close()
		return
	}
	go func() {
		tls12.ReadRawRecord(conn) //nolint:errcheck // read to be dropped
		conn.Close()
		h.lingering.Add(-1)
	}()
}

// Shutdown gracefully drains the host: new admissions are refused with
// DrainingError, in-flight sessions run to completion, and sessions
// still alive when ctx expires are force-closed (a hosted middlebox
// seals a close_notify toward both neighbors first). Listeners
// registered via Serve are closed once every handler has returned.
// Shutdown returns ctx.Err() if the deadline forced any session, nil
// after a clean drain.
func (h *Host) Shutdown(ctx context.Context) error {
	if h.draining.CompareAndSwap(false, true) {
		close(h.drainCh)
	}
	start := clock.Real{}.Now()
	h.mu.Lock()
	for _, s := range h.sessions {
		s.markDraining()
	}
	h.mu.Unlock()

	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		h.mu.Lock()
		forced := make([]*session, 0, len(h.sessions))
		for _, s := range h.sessions {
			forced = append(forced, s)
		}
		h.mu.Unlock()
		h.forceClosed.Add(uint64(len(forced)))
		for _, s := range forced {
			s.forceClose()
		}
		// Force-closing killed the transports, which unwinds the
		// handler goroutines; wait for them so no session outlives the
		// drain.
		<-done
	}
	drained := clock.Real{}.Now().Sub(start)

	h.lmu.Lock()
	firstClose := !h.closed
	h.closed = true
	lns := make([]net.Listener, 0, len(h.listeners))
	for ln := range h.listeners {
		lns = append(lns, ln)
	}
	h.listeners = make(map[net.Listener]struct{})
	h.lmu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	if firstClose {
		h.drainTime.Store(int64(drained))
		h.logf("sessionhost %s: drained in %v (forced %d)", h.cfg.Name, drained, h.forceClosed.Load())
	}
	return err
}

// Close drains with the configured DrainTimeout.
func (h *Host) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.DrainTimeout)
	defer cancel()
	return h.Shutdown(ctx)
}

// Metrics is a point-in-time snapshot of a Host.
type Metrics struct {
	Name string
	// Admission counters.
	Accepted        uint64 // sessions admitted
	Completed       uint64 // sessions ended clean (ok / clean close)
	Failed          uint64 // sessions ended by a fault-classified error
	Overloaded      uint64 // connections refused at the session cap
	RefusedDraining uint64 // connections refused during drain
	ForceClosed     uint64 // sessions force-closed at a drain deadline
	// Gauges.
	ActiveSessions     int
	HandshakesInFlight int
	Draining           bool
	// DrainTime is how long the first Shutdown took to drain every
	// session (zero before one).
	DrainTime time.Duration
	// Sessions aggregates the SessionStats handlers reported via
	// Control.ReportStats.
	Sessions core.SessionStats
	// Middlebox is the fronted middlebox's counters when the Config
	// wires a MiddleboxStats source.
	Middlebox *core.MiddleboxStats
	// BufPool snapshots the host-scoped record-buffer pool.
	BufPool tls12.RecordBufPoolStats
	// Handshake fast-path surfaces, present when the Config registered
	// the corresponding resource.
	KeySharePool       *hsfast.KeySharePoolStats
	VerifyCache        *hsfast.VerifyCacheStats
	TicketKeyRotations int64
}

// Snapshot reads the host's counters and gauges into one Metrics
// value without taking the registry lock. Each value is an atomic, but
// the snapshot is not a cross-counter fence: counters advancing
// mid-snapshot may land on either side.
func (h *Host) Snapshot() Metrics {
	m := Metrics{
		Name:               h.cfg.Name,
		Accepted:           h.accepted.Load(),
		Completed:          h.completed.Load(),
		Failed:             h.failed.Load(),
		Overloaded:         h.overloaded.Load(),
		RefusedDraining:    h.refusedDraining.Load(),
		ForceClosed:        h.forceClosed.Load(),
		ActiveSessions:     int(h.active.Load()),
		HandshakesInFlight: int(h.handshaking.Load()),
		Draining:           h.draining.Load(),
		DrainTime:          time.Duration(h.drainTime.Load()),
		Sessions: core.SessionStats{
			RecordsRelayed:   h.recordsRelayed.Load(),
			Reseals:          h.reseals.Load(),
			FaultsObserved:   h.faultsObserved.Load(),
			ResumedPrimary:   h.resumedPrimary.Load(),
			ResumedHops:      h.resumedHops.Load(),
			AttestSessions:   h.attestSessions.Load(),
			ProxySigSessions: h.proxySigSessions.Load(),
		},
	}
	if h.cfg.MiddleboxStats != nil {
		st := h.cfg.MiddleboxStats()
		m.Middlebox = &st
	}
	m.BufPool = h.bufs.Stats()
	if p := h.cfg.KeySharePool; p != nil {
		st := p.Stats()
		m.KeySharePool = &st
	}
	if c := h.cfg.VerifyCache; c != nil {
		st := c.Stats()
		m.VerifyCache = &st
	}
	if s := h.cfg.TicketKeys; s != nil {
		m.TicketKeyRotations = s.Rotations()
	}
	return m
}
