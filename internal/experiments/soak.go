package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sessionhost"
)

// SoakOptions tunes the idle-session soak.
type SoakOptions struct {
	// Sessions is how many live idle sessions to hold (default 20000).
	Sessions int
}

// SoakRow is the soak's result: can the host hold tens of
// thousands of live idle sessions with flat admission latency and
// bounded per-session memory, and then drain them all promptly?
type SoakRow struct {
	// Sessions is how many sessions were admitted and held live.
	Sessions int
	// AdmitP50Us / AdmitP99Us are per-Submit admission latency
	// percentiles in microseconds, measured across every admission
	// while the registry grows to its full size.
	AdmitP50Us float64
	AdmitP99Us float64
	// BytesPerSession is steady-state heap growth divided by session
	// count (GC-settled before and after admission).
	BytesPerSession float64
	// HeapSteadyMB is the absolute GC-settled heap with every session
	// live, for eyeballing the envelope.
	HeapSteadyMB float64
	// DrainMs is how long Shutdown took to drain every live session.
	DrainMs float64
	// ForceClosed counts sessions the drain deadline had to kill
	// (zero: idle handlers exit on the drain signal).
	ForceClosed uint64
}

// soakConn is the cheapest possible net.Conn: the soak measures the
// host's registry, admission path, and drain, so the transport
// under each session is deliberately inert.
type soakConn struct{}

type soakAddr struct{}

func (soakAddr) Network() string { return "soak" }
func (soakAddr) String() string  { return "soak" }

func (soakConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (soakConn) Write(p []byte) (int, error)     { return len(p), nil }
func (soakConn) Close() error                    { return nil }
func (soakConn) LocalAddr() net.Addr             { return soakAddr{} }
func (soakConn) RemoteAddr() net.Addr            { return soakAddr{} }
func (soakConn) SetDeadline(time.Time) error     { return nil }
func (soakConn) SetReadDeadline(time.Time) error { return nil }
func (soakConn) SetWriteDeadline(time.Time) error {
	return nil
}

// RunSoak admits opts.Sessions idle sessions into one host and
// holds them all live: each handler establishes immediately and then
// parks until released or draining, standing in for the long-lived
// mostly-idle sessions (§5) a deployed middlebox accumulates. It
// reports admission latency percentiles across the fill, GC-settled
// memory per session, and the drain time for the full registry. The
// admission-latency and leak numbers are asserted here — a soak that
// can't admit in microseconds or leaks goroutines is a failure, not a
// data point.
func RunSoak(opts SoakOptions) (*SoakRow, error) {
	count := opts.Sessions
	if count <= 0 {
		count = 20000
	}

	release := make(chan struct{})
	var established sync.WaitGroup
	handler := sessionhost.HandlerFunc(func(ctl *sessionhost.Control, conn net.Conn) error {
		ctl.SessionEstablished()
		established.Done()
		select {
		case <-release:
		case <-ctl.Draining():
		}
		return nil
	})
	host, err := sessionhost.New(sessionhost.Config{
		Name:        "soak",
		MaxSessions: count,
		Handler:     handler,
	})
	if err != nil {
		return nil, err
	}

	gBefore := runtime.NumGoroutine()
	var before runtime.MemStats
	gcSettle()
	runtime.ReadMemStats(&before)

	admits := make([]time.Duration, count)
	established.Add(count)
	for i := 0; i < count; i++ {
		t0 := time.Now()
		err := host.Submit(soakConn{})
		admits[i] = time.Since(t0)
		if err != nil {
			close(release)
			host.Close() //nolint:errcheck
			return nil, fmt.Errorf("soak: admission %d/%d refused: %w", i+1, count, err)
		}
	}
	established.Wait()

	var steady runtime.MemStats
	gcSettle()
	runtime.ReadMemStats(&steady)

	m := host.Snapshot()
	if m.ActiveSessions != count {
		close(release)
		host.Close() //nolint:errcheck
		return nil, fmt.Errorf("soak: %d sessions live at steady state, want %d", m.ActiveSessions, count)
	}

	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = host.Shutdown(ctx)
	cancel()
	drain := time.Since(drainStart)
	close(release)
	if err != nil {
		return nil, fmt.Errorf("soak: drain of %d idle sessions hit the deadline: %w", count, err)
	}

	// The host guarantees no session goroutine survives Shutdown; give
	// unrelated runtime goroutines a beat to settle before accounting.
	leaked := 0
	for wait := time.Now(); ; {
		leaked = runtime.NumGoroutine() - gBefore
		if leaked <= 0 || time.Since(wait) > 5*time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if leaked > 0 {
		return nil, fmt.Errorf("soak: %d goroutine(s) leaked past Shutdown", leaked)
	}

	sort.Slice(admits, func(i, j int) bool { return admits[i] < admits[j] })
	row := &SoakRow{
		Sessions:     count,
		AdmitP50Us:   float64(percentileDuration(admits, 0.50)) / float64(time.Microsecond),
		AdmitP99Us:   float64(percentileDuration(admits, 0.99)) / float64(time.Microsecond),
		HeapSteadyMB: float64(steady.HeapAlloc) / (1 << 20),
		DrainMs:      float64(drain) / float64(time.Millisecond),
		ForceClosed:  host.Snapshot().ForceClosed,
	}
	if steady.HeapAlloc > before.HeapAlloc {
		row.BytesPerSession = float64(steady.HeapAlloc-before.HeapAlloc) / float64(count)
	}
	if p99 := time.Duration(row.AdmitP99Us * float64(time.Microsecond)); p99 >= 5*time.Millisecond {
		return nil, fmt.Errorf("soak: admission p99 %v breaches the 5ms bound", p99)
	}
	return row, nil
}

// gcSettle runs two GC cycles so sync.Pool victim caches (which
// survive exactly one cycle) don't inflate a heap baseline taken right
// after a churn-heavy phase.
func gcSettle() {
	runtime.GC()
	runtime.GC()
}

// FormatSoak renders the soak result.
func FormatSoak(r *SoakRow) string {
	var b strings.Builder
	b.WriteString("Session host: idle-session soak\n")
	fmt.Fprintf(&b, "%-10s | %10s | %10s | %10s | %10s | %9s\n",
		"Sessions", "Admit p50", "Admit p99", "B/session", "Heap", "Drain")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 74))
	fmt.Fprintf(&b, "%-10d | %8.1fus | %8.1fus | %10.0f | %8.1fMB | %7.1fms\n",
		r.Sessions, r.AdmitP50Us, r.AdmitP99Us, r.BytesPerSession,
		r.HeapSteadyMB, r.DrainMs)
	return b.String()
}
