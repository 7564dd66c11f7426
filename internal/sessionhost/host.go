// Package sessionhost is the shared per-connection lifecycle runtime
// for every mbTLS network role. The paper's evaluation (§5) treats a
// middlebox as a long-lived service relaying many sessions at once;
// this package is where that service shape lives, so that
// cmd/mbtls-proxy, cmd/mbtls-server, and the netsim-driven tests stop
// duplicating accept loops and instead share one implementation of:
//
//   - sharded bounded admission: the host is split into N shards
//     (default GOMAXPROCS), each owning its share of the MaxSessions
//     slots, its own session map, and its own ID space (the shard
//     index rides in the session ID's low bits, so lookups route
//     without a global lock). Connections beyond the cap are refused
//     with a typed OverloadError (and an overloaded alert on the wire)
//     rather than queued without bound;
//   - a handshake gate: at most DefaultHandshakesPerShard sessions a
//     shard run their establishment concurrently; later admissions
//     queue FIFO, which
//     bounds handshake tail latency under bursts instead of letting
//     every admitted session contend at once;
//   - a session registry: shard-local monotonic session IDs with
//     per-session state (handshaking → established → draining →
//     closed);
//   - graceful fan-out drain: Shutdown drains every shard
//     independently under one force-close deadline, so a wedged
//     session on one shard cannot delay the others; survivors are
//     force-closed at the deadline (sealed close_notify when hop keys
//     exist, so endpoints see an orderly close instead of a reset);
//   - lock-free metrics: every counter is a per-shard atomic, merged
//     by Snapshot into one Metrics value (plus the SessionStats /
//     MiddleboxStats surfaces and the host gauges);
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

// String names the state.
func (s State) String() string {
	switch s {
	case StateHandshaking:
		return "handshaking"
	case StateEstablished:
		return "established"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return "state(?)"
}

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
	// DefaultHandshakesPerShard sizes each shard's handshake gate:
	// sessions concurrently running establishment (admitted sessions
	// beyond it queue FIFO before their handler starts). Enough
	// concurrency to keep every core busy through a handshake's round
	// trips, small enough that a burst of admissions queues instead of
	// thrashing. The gate relies on the configured handshake timeouts
	// to reclaim slots from wedged peers.
	DefaultHandshakesPerShard = 8
)

// Config configures a Host.
type Config struct {
	// Name identifies the host in typed rejection errors and metrics.
	Name string
	// MaxSessions caps concurrent sessions across all shards;
	// connections beyond the cap are refused with OverloadError. Zero
	// means DefaultMaxSessions.
	MaxSessions int
	// Shards is how many independent admission/registry shards the
	// host runs. Zero means runtime.GOMAXPROCS(0); values are clamped
	// to [1, MaxShards].
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
	// RelayPool registers the relay crypto worker pool the host's
	// middleboxes were built with, so its utilization/depth/stall
	// counters merge into Metrics. The caller keeps ownership of its
	// lifecycle. Nil registers none (middleboxes built without one use
	// the process-wide shared pool).
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
	cfg    Config
	shards []*shard
	bufs   *tls12.RecordBufPool
	// rr rotates the home shard for admissions.
	rr atomic.Uint64

	// draining flips when drain begins; drainCh closes at the same
	// moment so handlers can select on it.
	draining atomic.Bool
	drainCh  chan struct{}

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
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > MaxShards {
		cfg.Shards = MaxShards
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
	h := &Host{
		cfg:       cfg,
		bufs:      bufs,
		drainCh:   make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		// MaxSessions slots split exactly across shards (the first
		// MaxSessions%Shards shards take the remainder); admission
		// steals from sibling shards before refusing, so the host
		// refuses only when the whole cap is in use.
		slots := cfg.MaxSessions / cfg.Shards
		if i < cfg.MaxSessions%cfg.Shards {
			slots++
		}
		h.shards[i] = &shard{
			host:     h,
			idx:      i,
			sem:      make(chan struct{}, slots),
			gate:     make(chan struct{}, DefaultHandshakesPerShard),
			sessions: make(map[uint64]*session),
		}
	}
	return h, nil
}

// Name returns the configured host name.
func (h *Host) Name() string { return h.cfg.Name }

// Shards returns how many shards the host runs.
func (h *Host) Shards() int { return len(h.shards) }

// BufPool returns the host-scoped record-buffer pool. Middleboxes
// served by this host should be built with MiddleboxConfig.BufPool set
// to it so relay memory is bounded by the pool, not by session count.
func (h *Host) BufPool() *tls12.RecordBufPool { return h.bufs }

// Draining returns a channel closed when drain begins.
func (h *Host) Draining() <-chan struct{} { return h.drainCh }

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
// tcpx.Transport.ListenShards: a host with N shards accepting on N
// SO_REUSEPORT listeners gets kernel-spread admission with no shared
// accept lock. Any listener count works — the slice does not have to
// match the shard count. If one loop fails while the host is still up,
// the sibling listeners are closed so the failure surfaces immediately
// instead of the host serving half-sharded indefinitely.
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
	home := h.shards[int(h.rr.Add(1)-1)%len(h.shards)]
	if h.draining.Load() {
		home.refusedDraining.Add(1)
		return &core.DrainingError{Host: h.cfg.Name}
	}
	sh, ok := h.reserve(home)
	if !ok {
		home.overloaded.Add(1)
		return &core.OverloadError{Host: h.cfg.Name, Active: h.cfg.MaxSessions, Max: h.cfg.MaxSessions}
	}
	s := &session{conn: conn}
	if !sh.register(s) {
		// Raced with Shutdown between the slot claim and registration.
		return &core.DrainingError{Host: h.cfg.Name}
	}
	go sh.run(s)
	return nil
}

// reserve claims an admission slot, preferring the home shard and
// stealing from siblings before giving up, so the host only refuses
// when every slot across every shard is in use.
func (h *Host) reserve(home *shard) (*shard, bool) {
	for i := 0; i < len(h.shards); i++ {
		sh := h.shards[(home.idx+i)%len(h.shards)]
		select {
		case sh.sem <- struct{}{}:
			return sh, true
		default:
		}
	}
	return nil, false
}

// Lookup returns a Control for a live session by ID. The shard index
// encoded in the ID routes the lookup to one shard's map.
func (h *Host) Lookup(id uint64) (*Control, bool) {
	idx := ShardOfID(id)
	if idx >= len(h.shards) {
		return nil, false
	}
	sh := h.shards[idx]
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	if s == nil {
		return nil, false
	}
	return &Control{s: s}, true
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
	conn.SetDeadline(time.Now().Add(rejectLinger)) //nolint:errcheck
	conn.Write(rec.Marshal())                      //nolint:errcheck
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
// seals a close_notify toward both neighbors first). The drain fans
// out per shard under the one deadline — a wedged session on one
// shard delays only that shard's completion, never the others'.
// Listeners registered via Serve are closed once every shard drained.
// Shutdown returns ctx.Err() if the deadline forced any shard, nil
// after a clean drain.
func (h *Host) Shutdown(ctx context.Context) error {
	if h.draining.CompareAndSwap(false, true) {
		close(h.drainCh)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var deadline atomic.Bool
	for _, sh := range h.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if sh.drain(ctx, start) {
				deadline.Store(true)
			}
		}(sh)
	}
	wg.Wait()

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
	var err error
	if deadline.Load() {
		err = ctx.Err()
	}
	if firstClose {
		m := h.Snapshot()
		h.logf("sessionhost %s: drained %d shard(s) in %v (forced %d)",
			h.cfg.Name, len(h.shards), time.Since(start), m.ForceClosed)
	}
	return err
}

// Close drains with the configured DrainTimeout.
func (h *Host) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.DrainTimeout)
	defer cancel()
	return h.Shutdown(ctx)
}

// ShardMetrics is one shard's slice of a Metrics snapshot.
type ShardMetrics struct {
	Index           int
	Accepted        uint64
	Completed       uint64
	Failed          uint64
	Overloaded      uint64
	RefusedDraining uint64
	ForceClosed     uint64

	ActiveSessions     int
	HandshakesInFlight int

	// Sessions is this shard's slice of the SessionStats aggregate.
	Sessions core.SessionStats

	// Drained reports that this shard's drain completed (all handlers
	// returned); DrainTime is how long that took from Shutdown entry.
	Drained   bool
	DrainTime time.Duration
}

// Metrics is a point-in-time snapshot of a Host, merged across shards.
type Metrics struct {
	Name   string
	Shards int
	// Admission counters (sums of the per-shard atomics).
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
	// DrainTime is the slowest shard's drain duration for the last
	// Shutdown (zero before one).
	DrainTime time.Duration
	// PerShard is the unmerged breakdown, one entry per shard.
	PerShard []ShardMetrics
	// Sessions aggregates the SessionStats handlers reported via
	// Control.ReportStats.
	Sessions core.SessionStats
	// Middlebox is the fronted middlebox's counters when the Config
	// wires a MiddleboxStats source.
	Middlebox *core.MiddleboxStats
	// BufPool snapshots the host-scoped record-buffer pool.
	BufPool tls12.RecordBufPoolStats
	// RelayPool snapshots the relay crypto worker pool (worker
	// utilization, pipeline depth, stalls, reseal latency quantiles)
	// when the host has one registered.
	RelayPool *core.RelayPoolStats
	// Handshake fast-path surfaces, present when the Config registered
	// the corresponding resource.
	KeySharePool       *hsfast.KeySharePoolStats
	VerifyCache        *hsfast.VerifyCacheStats
	TicketKeyRotations int64
}

// Snapshot merges every shard's lock-free counters into one Metrics
// value. The sums are per-counter consistent (each counter is an
// atomic) but the snapshot is not a cross-counter fence: counters
// advancing mid-snapshot may land on either side.
func (h *Host) Snapshot() Metrics {
	m := Metrics{
		Name:     h.cfg.Name,
		Shards:   len(h.shards),
		Draining: h.draining.Load(),
		PerShard: make([]ShardMetrics, 0, len(h.shards)),
	}
	for _, sh := range h.shards {
		sh.snapshotInto(&m)
	}
	if h.cfg.MiddleboxStats != nil {
		st := h.cfg.MiddleboxStats()
		m.Middlebox = &st
	}
	m.BufPool = h.bufs.Stats()
	if h.cfg.RelayPool != nil {
		st := h.cfg.RelayPool.Stats()
		m.RelayPool = &st
	}
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
