package sessionhost

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Session IDs encode the owning shard in their low bits so a lookup
// routes straight to the right shard without any global lock:
//
//	id = seq<<shardIDBits | shardIndex
//
// seq is the shard-local monotonic counter, so IDs are unique across
// the host and monotonic within a shard.
const (
	shardIDBits = 10
	// MaxShards bounds Config.Shards (the ID encoding reserves
	// shardIDBits low bits for the shard index).
	MaxShards   = 1 << shardIDBits
	shardIDMask = MaxShards - 1
)

// ShardOfID extracts the owning shard index from a session ID.
func ShardOfID(id uint64) int { return int(id & shardIDMask) }

// shard is one slice of the host: its own admission slots, session
// map, ID space, handshake-gate slots, and counters. Nothing on the
// steady-state admission or teardown path touches state outside its
// shard, so shards scale with cores instead of convoying on one
// semaphore and one registry lock.
type shard struct {
	host *Host
	idx  int
	// sem holds this shard's share of MaxSessions admission slots.
	sem chan struct{}
	// gate bounds concurrent handshakes on this shard
	// (DefaultHandshakesPerShard). Sessions queue here FIFO before their
	// handler starts, which keeps handshake latency ordered instead of
	// letting every admitted session thrash the CPU at once.
	gate chan struct{}

	nextSeq atomic.Uint64

	// mu guards only the session map and wg admission ordering; every
	// counter below is a lock-free atomic merged by Host.Snapshot.
	mu       sync.Mutex
	sessions map[uint64]*session
	wg       sync.WaitGroup

	accepted        atomic.Uint64
	completed       atomic.Uint64
	failed          atomic.Uint64
	overloaded      atomic.Uint64
	refusedDraining atomic.Uint64
	forceClosed     atomic.Uint64

	// Aggregated core.SessionStats deltas reported via
	// Control.ReportStats.
	recordsRelayed   atomic.Int64
	reseals          atomic.Int64
	faultsObserved   atomic.Int64
	resumedPrimary   atomic.Int64
	resumedHops      atomic.Int64
	attestSessions   atomic.Int64
	proxySigSessions atomic.Int64

	// drained flips once this shard's drain completed (all handlers
	// returned); drainTime is nanoseconds from Shutdown entry to that
	// point. A wedged session on another shard cannot hold these back.
	drained   atomic.Bool
	drainTime atomic.Int64
}

// register admits s into the shard under a claimed slot. It returns
// false when the host began draining, in which case the slot is
// released and the session was never registered.
func (sh *shard) register(s *session) bool {
	sh.mu.Lock()
	if sh.host.draining.Load() {
		sh.mu.Unlock()
		sh.refusedDraining.Add(1)
		<-sh.sem
		return false
	}
	seq := sh.nextSeq.Add(1)
	s.id = seq<<shardIDBits | uint64(sh.idx)
	s.sh = sh
	sh.sessions[s.id] = s
	sh.wg.Add(1)
	sh.mu.Unlock()
	sh.accepted.Add(1)
	return true
}

// run drives one admitted session to completion on its own goroutine.
func (sh *shard) run(s *session) {
	defer sh.wg.Done()
	h := sh.host
	// FIFO handshake gate: the expensive establishment work starts
	// only when a gate slot frees. During drain the gate is bypassed —
	// the handler fails fast against a closing session and must not
	// queue behind the deadline.
	select {
	case sh.gate <- struct{}{}:
		s.gated.Store(true)
	case <-h.drainCh:
	}
	err := h.cfg.Handler.Serve(&Control{s: s}, s.conn)
	s.conn.Close()
	s.releaseGate()
	s.state.Store(int32(StateClosed))
	cls := core.ClassifyError(err)
	sh.mu.Lock()
	delete(sh.sessions, s.id)
	sh.mu.Unlock()
	if cls == core.ClassOK || cls == core.ClassCleanClose {
		sh.completed.Add(1)
	} else {
		sh.failed.Add(1)
	}
	<-sh.sem
	if cls != core.ClassOK {
		h.logf("sessionhost %s: session %d closed: %s (%v)", h.cfg.Name, s.id, cls, err)
	}
}

// drain is one shard's slice of Shutdown's fan-out: mark every live
// session draining, wait for handlers, and force-close survivors when
// ctx expires. It reports whether the deadline fired. Each shard
// drains independently — one shard's wedged handler delays only that
// shard's completion.
func (sh *shard) drain(ctx context.Context, start time.Time) (deadline bool) {
	sh.mu.Lock()
	for _, s := range sh.sessions {
		s.markDraining()
	}
	sh.mu.Unlock()

	done := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		deadline = true
		sh.mu.Lock()
		forced := make([]*session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			forced = append(forced, s)
		}
		sh.mu.Unlock()
		sh.forceClosed.Add(uint64(len(forced)))
		for _, s := range forced {
			s.forceClose()
		}
		// Force-closing killed the transports, which unwinds the
		// handler goroutines; wait for them so no session outlives the
		// shard's drain.
		<-done
	}
	if sh.drained.CompareAndSwap(false, true) {
		sh.drainTime.Store(int64(time.Since(start)))
	}
	return deadline
}

// snapshotInto folds this shard's counters and gauges into m and
// appends the per-shard breakdown.
func (sh *shard) snapshotInto(m *Metrics) {
	sm := ShardMetrics{
		Index:           sh.idx,
		Accepted:        sh.accepted.Load(),
		Completed:       sh.completed.Load(),
		Failed:          sh.failed.Load(),
		Overloaded:      sh.overloaded.Load(),
		RefusedDraining: sh.refusedDraining.Load(),
		ForceClosed:     sh.forceClosed.Load(),
		Drained:         sh.drained.Load(),
		DrainTime:       time.Duration(sh.drainTime.Load()),
		Sessions: core.SessionStats{
			RecordsRelayed:   sh.recordsRelayed.Load(),
			Reseals:          sh.reseals.Load(),
			FaultsObserved:   sh.faultsObserved.Load(),
			ResumedPrimary:   sh.resumedPrimary.Load(),
			ResumedHops:      sh.resumedHops.Load(),
			AttestSessions:   sh.attestSessions.Load(),
			ProxySigSessions: sh.proxySigSessions.Load(),
		},
	}
	sh.mu.Lock()
	sm.ActiveSessions = len(sh.sessions)
	for _, s := range sh.sessions {
		if State(s.state.Load()) == StateHandshaking {
			sm.HandshakesInFlight++
		}
	}
	sh.mu.Unlock()

	m.Accepted += sm.Accepted
	m.Completed += sm.Completed
	m.Failed += sm.Failed
	m.Overloaded += sm.Overloaded
	m.RefusedDraining += sm.RefusedDraining
	m.ForceClosed += sm.ForceClosed
	m.ActiveSessions += sm.ActiveSessions
	m.HandshakesInFlight += sm.HandshakesInFlight
	m.Sessions.RecordsRelayed += sm.Sessions.RecordsRelayed
	m.Sessions.Reseals += sm.Sessions.Reseals
	m.Sessions.FaultsObserved += sm.Sessions.FaultsObserved
	m.Sessions.ResumedPrimary += sm.Sessions.ResumedPrimary
	m.Sessions.ResumedHops += sm.Sessions.ResumedHops
	m.Sessions.AttestSessions += sm.Sessions.AttestSessions
	m.Sessions.ProxySigSessions += sm.Sessions.ProxySigSessions
	if sm.DrainTime > m.DrainTime {
		m.DrainTime = sm.DrainTime
	}
	m.PerShard = append(m.PerShard, sm)
}
