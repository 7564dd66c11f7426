package core_test

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// hostedOnce hosts one middlebox session the way a session host does —
// HandleHosted, so the session's vault namespace is wiped at teardown —
// and lets the test wait for its data plane and for that teardown.
type hostedOnce struct{ established, done chan struct{} }

func (h *hostedOnce) SessionEstablished()     { close(h.established) }
func (*hostedOnce) RegisterForceClose(func()) {}

// TestResumedSessionFixedCost pins what one resumed chain session costs
// in the two currencies a profile of the hs_resumed workload is made of
// (DESIGN.md §10): enclave crossings, exactly, and bytes allocated,
// under a ceiling. A session is dial → accept → one small record each
// way → client close → middlebox teardown → server close, on the attest
// chain with an enclave middlebox, each redeeming the chain ticket its
// predecessor was reissued.
func TestResumedSessionFixedCost(t *testing.T) {
	f := newChainFixture(t)
	ct := f.establish(t)
	ccfg := f.clientConfig(func(c *core.ChainTicket) { ct = c })

	session := func() {
		ccfg.ChainTicket = ct
		left, right := netsim.Pipe()
		upL, upR := netsim.Pipe()
		host := hostedOnce{make(chan struct{}), make(chan struct{})}
		go func() {
			defer close(host.done)
			f.mb.HandleHosted(right, upL, &host) //nolint:errcheck
		}()
		client, server := dialAccept(t, left, upR, ccfg, f.scfg)
		if st := client.Stats(); st.ResumedPrimary != 1 || st.ResumedHops != 1 {
			t.Fatalf("session did not resume: %+v", st)
		}
		// A record that beats the key material to the middlebox waits for
		// the data plane and runs inline, one crossing cheaper than the
		// steady state; start from the steady state.
		<-host.established
		exchange(t, client, server, "ping", "pong")
		client.Close()
		if _, err := server.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("server read after client close: %v, want EOF", err)
		}
		// The middlebox tears down on the client's close; the server's own
		// close_notify would race that teardown into the relay, so it is
		// sent only once there is no relay left to count it.
		<-host.done
		server.Close()
	}

	// What a resumed session enters the enclave for, two transitions an
	// Enter: the secondary-key store, the hop-key store and the
	// data-plane install (1 each), ping and pong reserved by the relay
	// and processed by a worker (2 each), the client's close_notify
	// inline (1), and the vault-namespace wipe at teardown (1).
	const wantTransitions = 2 * (1 + 1 + 1 + 2 + 2 + 1 + 1)
	const n = 200
	const ceilingKiB = 120

	for i := 0; i < 20; i++ { // pools warm, lazy set-up done
		session()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		start := f.encl.Transitions()
		session()
		if got := f.encl.Transitions() - start; got != wantTransitions {
			t.Fatalf("session %d: %d enclave transitions, want %d", i, got, wantTransitions)
		}
	}
	runtime.ReadMemStats(&after)
	perSession := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("resumed session: %d transitions, %.1f KiB allocated", wantTransitions, perSession)
	if perSession > ceilingKiB && !raceEnabled {
		t.Fatalf("resumed session allocates %.1f KiB, ceiling %d KiB", perSession, ceilingKiB)
	}
}
