package clock

import (
	"net"
	"slices"
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0)

// TestAdvanceRunsDueCallbacksInDeadlineOrder: Advance runs exactly the
// callbacks due by its end, earliest first and ties in arm order, each
// seeing the clock at its own deadline; a callback's own timer runs in
// the same Advance when it falls due by then.
func TestAdvanceRunsDueCallbacksInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+m.Now().Sub(epoch).String()) }
	}
	m.AfterFunc(3*time.Second, at("c"))
	m.AfterFunc(time.Second, at("a"))
	m.AfterFunc(3*time.Second, at("d"))
	m.AfterFunc(2*time.Second, func() {
		at("b")()
		m.AfterFunc(500*time.Millisecond, at("b+"))
		m.AfterFunc(time.Hour, at("never"))
	})
	m.Advance(3*time.Second - time.Nanosecond)
	if want := "[a@1s b@2s b+@2.5s]"; sprint(got) != want {
		t.Fatalf("after 3s-1ns ran %v, want %s", got, want)
	}
	m.Advance(time.Nanosecond)
	if want := "[a@1s b@2s b+@2.5s c@3s d@3s]"; sprint(got) != want {
		t.Fatalf("after 3s ran %v, want %s", got, want)
	}
	if now := m.Now(); !now.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now = %v after advancing 3s", now.Sub(epoch))
	}
}

func sprint(s []string) string {
	out := "["
	for i, x := range s {
		if i > 0 {
			out += " "
		}
		out += x
	}
	return out + "]"
}

// TestStopDisarms: a stopped timer never runs, and Stop reports whether
// it was still pending.
func TestStopDisarms(t *testing.T) {
	m := NewManual(epoch)
	ran := false
	tm := m.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	m.Advance(time.Hour)
	if ran {
		t.Fatal("stopped timer ran")
	}
	fired := m.AfterFunc(time.Second, func() {})
	m.Advance(time.Second)
	if fired.Stop() {
		t.Fatal("Stop after the timer ran = true")
	}
}

// TestResetRearms: Reset moves a pending timer's deadline to d from now,
// re-arms one that already ran, and counts as an arming for
// AwaitTimers; a real *time.Timer is a Timer too.
func TestResetRearms(t *testing.T) {
	var _ Timer = (*time.Timer)(nil)
	m := NewManual(epoch)
	var fired []time.Duration
	tm := m.AfterFunc(time.Second, func() { fired = append(fired, m.Now().Sub(epoch)) })
	m.Advance(500 * time.Millisecond)
	if !tm.Reset(time.Second) {
		t.Fatal("Reset of a pending timer = false")
	}
	m.Advance(900 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("timer ran at %v, before its reset deadline", fired)
	}
	m.Advance(100 * time.Millisecond)
	if tm.Reset(time.Second) {
		t.Fatal("Reset after the timer ran = true")
	}
	m.Advance(time.Second)
	if want := []time.Duration{1500 * time.Millisecond, 2500 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("timer ran at %v, want %v", fired, want)
	}
	m.AwaitTimers(3) // AfterFunc and two Resets
}

// TestAwaitTimersCountsArmings: AwaitTimers returns once the n-th timer
// is armed by another goroutine, counting ones already stopped.
func TestAwaitTimersCountsArmings(t *testing.T) {
	m := NewManual(epoch)
	m.AfterFunc(time.Second, func() {}).Stop()
	done := make(chan struct{})
	go func() {
		m.AwaitTimers(2)
		close(done)
	}()
	m.AwaitTimers(1)
	select {
	case <-done:
		t.Fatal("AwaitTimers(2) returned after one arming")
	default:
	}
	m.AfterFunc(time.Minute, func() {})
	<-done
}

// TestDueTimerRunsAtOnce: a non-positive duration is already due; its
// callback runs on its own goroutine without an Advance, so arming it
// under a lock the callback takes does not deadlock.
func TestDueTimerRunsAtOnce(t *testing.T) {
	m := NewManual(epoch)
	ran := make(chan struct{})
	m.AfterFunc(0, func() { close(ran) })
	<-ran
}

type clocked struct {
	net.Conn
	c Clock
}

func (c clocked) Clock() Clock { return c.c }

func TestOf(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, ok := Of(a).(Real); !ok {
		t.Fatalf("Of(net.Pipe end) = %T, want Real", Of(a))
	}
	m := NewManual(epoch)
	if Of(clocked{a, m}) != m {
		t.Fatal("Of did not return the transport's clock")
	}
	if _, ok := Or(nil).(Real); !ok || Or(m) != m {
		t.Fatal("Or must default nil to Real and keep a set clock")
	}
}
