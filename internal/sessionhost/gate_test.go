package sessionhost

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
)

// gateProbe is one started handler of TestHandshakeGate: whether it
// started holding a gate slot, and the channels that drive it.
type gateProbe struct {
	gated     bool // held a gate slot when the handler started
	draining  bool // the host was draining when the handler started
	establish chan struct{}
	done      chan struct{} // closed once SessionEstablished returned
	ret       chan struct{}
}

// nopConn is a connection the host only closes.
type nopConn struct{ net.Conn }

func (nopConn) Close() error { return nil }

// TestHandshakeGate pins the handshake gate (DESIGN.md §9): its width
// is 8 × GOMAXPROCS; with that many handlers blocked mid-handshake and
// more queued, each SessionEstablished or handler return admits exactly
// one more; a handler that establishes and then returns frees one slot,
// not two; and once Shutdown begins, what is still queued starts without
// a slot and sees the drain. Every step waits on a channel, and a slot
// handed over is handed over synchronously by the release, so the
// counts are exact — no sleeps, no polling.
func TestHandshakeGate(t *testing.T) {
	const queued = 3
	errProbe := errors.New("gate probe done")
	started := make(chan *gateProbe, 1024)
	// A session that fails is logged as the last step of its teardown,
	// after its gate slot and admission slot are back.
	tornDown := make(chan struct{}, 1024)
	host, err := New(Config{
		Name:        "gate",
		MaxSessions: 1024,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "session %d closed") {
				tornDown <- struct{}{}
			}
		},
		Handler: HandlerFunc(func(ctl *Control, _ net.Conn) error {
			p := &gateProbe{
				gated:     ctl.s.gated.Load(),
				establish: make(chan struct{}),
				done:      make(chan struct{}),
				ret:       make(chan struct{}),
			}
			select {
			case <-ctl.Draining():
				p.draining = true
			default:
			}
			started <- p
			select {
			case <-p.establish:
				ctl.SessionEstablished()
				close(p.done)
				<-p.ret
			case <-p.ret:
			}
			return errProbe
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	width := cap(host.gate)
	if want := 8 * runtime.GOMAXPROCS(0); width != want {
		t.Fatalf("gate width = %d, want 8 × GOMAXPROCS = %d", width, want)
	}
	for i := 0; i < width+queued; i++ {
		if err := host.Submit(nopConn{}); err != nil {
			t.Fatal(err)
		}
	}

	// next waits for one more handler to start on a gate slot.
	var live []*gateProbe
	next := func(why string) {
		t.Helper()
		p := <-started
		if !p.gated || p.draining {
			t.Fatalf("%s: handler started gated=%v draining=%v, want a slot and no drain", why, p.gated, p.draining)
		}
		live = append(live, p)
	}
	// full checks that every slot is held: whoever started last took the
	// only free one, so nobody else started with it.
	full := func(why string) {
		t.Helper()
		if len(host.gate) != width {
			t.Fatalf("%s: %d gate slots held, want all %d", why, len(host.gate), width)
		}
	}
	for i := 0; i < width; i++ {
		next("filling the gate")
	}
	full("gate filled")
	if m := host.Snapshot(); m.ActiveSessions != width+queued || m.HandshakesInFlight != width+queued {
		t.Errorf("gauges = active %d handshaking %d, want %d/%d", m.ActiveSessions, m.HandshakesInFlight, width+queued, width+queued)
	}

	// Establishment frees a slot: exactly one queued session starts.
	first := live[0]
	close(first.establish)
	<-first.done
	next("after SessionEstablished")
	full("after SessionEstablished")

	// A handler returning mid-handshake frees its slot: one more starts.
	close(live[1].ret)
	<-tornDown
	next("after a handler returned")
	full("after a handler returned")

	// The established handler returns. Its slot went back when it
	// established, so nothing is freed now: the gate stays full and the
	// last queued session stays queued.
	close(first.ret)
	<-tornDown
	full("after the established handler returned")
	if m := host.Snapshot(); m.ActiveSessions != width+queued-2 || m.HandshakesInFlight != width+queued-2 {
		t.Errorf("gauges = active %d handshaking %d, want %d/%d", m.ActiveSessions, m.HandshakesInFlight, width+queued-2, width+queued-2)
	}

	// Drain: the queued session starts without a slot and sees the drain.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- host.Shutdown(context.Background()) }()
	last := <-started
	if last.gated || !last.draining {
		t.Fatalf("queued session at drain started gated=%v draining=%v, want no slot and the drain visible", last.gated, last.draining)
	}
	full("after a start at drain")
	close(last.ret)
	for _, p := range live[2:] {
		close(p.ret)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if len(host.gate) != 0 || len(host.sem) != 0 {
		t.Errorf("after drain: %d gate slots and %d admission slots still held", len(host.gate), len(host.sem))
	}
	if m := host.Snapshot(); m.ActiveSessions != 0 || m.HandshakesInFlight != 0 || m.Failed != uint64(width+queued) {
		t.Errorf("after drain: active %d handshaking %d failed %d, want 0/0/%d", m.ActiveSessions, m.HandshakesInFlight, m.Failed, width+queued)
	}
}
