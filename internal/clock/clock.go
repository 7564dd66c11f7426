// Package clock is the one source of time on the session path: code
// that reads the time or waits for it takes a Clock, which is Real in
// production and a Manual a test moves by hand, so a deadline fires at
// an exact instant. A session's clock is its transport's (Of): a conn's
// deadlines are absolute times in the transport's own time base.
package clock

import (
	"net"
	"slices"
	"sync"
	"time"
)

// Clock tells the time and runs callbacks once a duration has passed.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f on its own goroutine once d has passed, as
	// time.AfterFunc does.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a callback armed by AfterFunc. Stop reports whether it kept
// the callback from running; Reset re-arms the callback d from now,
// reporting whether it was still pending. A *time.Timer is one.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock: time.Now and time.AfterFunc.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// AfterFunc returns time.AfterFunc(d, f).
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Of returns the clock of a transport that has one — a Clock method, as
// *netsim.Conn and the wrappers around it have — and Real otherwise.
func Of(conn net.Conn) Clock {
	if c, ok := conn.(interface{ Clock() Clock }); ok {
		return c.Clock()
	}
	return Real{}
}

// Or returns c, or Real when c is nil (an optional Clock's default).
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Manual is a clock that moves only when Advance moves it (NewManual).
type Manual struct {
	mu      sync.Mutex
	armedCh *sync.Cond // broadcast when a timer is armed
	now     time.Time
	armed   int            // timers armed so far, stopped and fired ones included
	pending []*manualTimer // in the order they were armed
}

type manualTimer struct {
	m    *Manual
	when time.Time
	f    func()
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.armedCh = sync.NewCond(&m.mu)
	return m
}

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc arms f to run when Advance reaches now+d. A non-positive d
// is already due: f runs at once on its own goroutine, as time.AfterFunc
// runs it, so arming it under a lock f takes cannot deadlock.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{m: m, f: f}
	m.armLocked(t, d)
	return t
}

// armLocked arms t d from now; each arming counts for AwaitTimers.
func (m *Manual) armLocked(t *manualTimer, d time.Duration) {
	m.armed++
	m.armedCh.Broadcast()
	t.when = m.now.Add(d)
	if d <= 0 {
		go t.f()
	} else {
		m.pending = append(m.pending, t)
	}
}

// Stop disarms the timer, reporting whether it was still pending.
func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.stopLocked()
}

func (t *manualTimer) stopLocked() bool {
	i := slices.Index(t.m.pending, t)
	if i < 0 {
		return false
	}
	t.m.pending = slices.Delete(t.m.pending, i, i+1)
	return true
}

// Reset re-arms the timer d from now, as a fresh AfterFunc would,
// reporting whether it was still pending.
func (t *manualTimer) Reset(d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	pending := t.stopLocked()
	t.m.armLocked(t, d)
	return pending
}

// Advance moves the clock forward by d and runs every callback that
// falls due, in deadline order (ties in the order they were armed),
// each with the clock reading its deadline, before it returns.
// Callbacks run on the caller's goroutine without the clock's lock, so
// one may arm another; if that one falls due by now+d, it runs too.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for {
		next := -1
		for i, t := range m.pending {
			if !t.when.After(end) && (next < 0 || t.when.Before(m.pending[next].when)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := m.pending[next]
		m.pending = slices.Delete(m.pending, next, next+1)
		m.now = t.when
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.now = end
}

// AwaitTimers blocks until timers have been armed n times on the clock
// since it was made — AfterFunc and Reset each arm once — stopped and
// fired ones included. A test calls it before
// Advance, so the clock moves only after the code under test has set
// the deadline the test is about.
func (m *Manual) AwaitTimers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.armed < n {
		m.armedCh.Wait()
	}
}
