package core_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
)

// Race coverage for the relay pipeline: both directions of a
// pipelined session (dedicated multi-worker pool, bulk traffic in
// flight both ways) hit netsim faults — ciphertext corruption landing
// mid-batch and a hop dying mid-pipeline — and must surface typed
// errors at the endpoints, keep alert ordering intact (the client must
// never see a MAC failure caused by our own out-of-sequence alert),
// and leak no goroutines. Run under -race, this is the pipeline's
// concurrency gate.

// buildTrackedChain is buildFaultChain for a single middlebox with the
// Handle goroutine tracked: tests that own a RelayPool must not Close
// it until Handle has returned — the relay submits to the pool, and
// only Handle's return gives a happens-before edge past the last
// submit. (The count-based goleak accounting provides no such edge.)
func buildTrackedChain(spec netsim.FaultSpec, mb *core.Middlebox) (clientEnd, serverEnd net.Conn, done chan struct{}) {
	left, right := netsim.FaultPipe(spec)
	upL, upR := netsim.Pipe()
	done = make(chan struct{})
	go func() {
		defer close(done)
		mb.Handle(right, upL) //nolint:errcheck
	}()
	return left, upR, done
}

// awaitHandle waits for a tracked middlebox Handle to return.
func awaitHandle(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		t.Fatal("middlebox Handle still running 8s after session teardown")
	}
}

// pumpOutcome collects one endpoint pair's bulk-traffic terminal state.
type pumpOutcome struct {
	clientWrite, clientRead error
	serverWrite, serverRead error
}

// pumpBothDirections pushes bulk data client→server and server→client
// concurrently until every pump hits an error (the injected fault or
// the resulting teardown), keeping several records in flight per
// direction so faults land while the pipeline is busy.
func pumpBothDirections(t *testing.T, client, server *core.Session) pumpOutcome {
	t.Helper()
	watchdog := time.AfterFunc(8*time.Second, func() {
		client.Close()
		server.Close()
	})
	defer watchdog.Stop()

	// Writers stop at an error only: a byte budget would let a fast
	// relay finish it before a timed fault lands.
	writer := func(s *core.Session, ch chan<- error) {
		buf := make([]byte, 32*1024)
		for {
			if _, err := s.Write(buf); err != nil {
				ch <- err
				return
			}
		}
	}
	reader := func(s *core.Session, ch chan<- error) {
		buf := make([]byte, 64*1024)
		for {
			if _, err := s.Read(buf); err != nil {
				ch <- err
				return
			}
		}
	}
	cw, cr := make(chan error, 1), make(chan error, 1)
	sw, sr := make(chan error, 1), make(chan error, 1)
	go writer(client, cw)
	go reader(client, cr)
	go writer(server, sw)
	go reader(server, sr)

	var out pumpOutcome
	for i := 0; i < 4; i++ {
		select {
		case out.clientWrite = <-cw:
			cw = nil
		case out.clientRead = <-cr:
			cr = nil
		case out.serverWrite = <-sw:
			sw = nil
		case out.serverRead = <-sr:
			sr = nil
		case <-time.After(10 * time.Second):
			t.Fatal("bulk pumps still running 10s after fault injection")
		}
	}
	return out
}

// requireFaultClass asserts an error is present and classifies into one
// of the allowed classes.
func requireFaultClass(t *testing.T, name string, err error, allowed ...core.ErrorClass) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: pump completed without observing the fault", name)
	}
	cls := core.ClassifyError(err)
	for _, c := range allowed {
		if cls == c {
			return
		}
	}
	t.Fatalf("%s: error class %s (err: %v) not allowed", name, cls, err)
}

// TestPipelineCorruptMidBatch: corruption lands inside a bulk burst on
// the client→middlebox hop while both directions have jobs in the
// pipeline — in a record's ciphertext, where the middlebox's MAC check
// kills the session through the commit path (partial batch released,
// alert sealed at the committed position), and in a record header,
// where the relay's look-ahead finds the framing error behind the
// records it has buffered and commits those first (the byte-exact
// version of that is a FuzzParallelReseal seed). Either way both
// endpoints unwind on a typed error and nothing leaks.
func TestPipelineCorruptMidBatch(t *testing.T) {
	const (
		recordOverhead = 5 + 8 + 16 // header, explicit nonce, tag
		steadyState    = "steady state"
		fullRecord     = 16384 + recordOverhead
	)
	e := newEnv(t)
	// Handshake bytes don't depend on the relay configuration, so the
	// measurement session runs on the shared pool — it must not touch
	// the pool this test closes.
	h := measureClientHandshakeBytes(t, e, func() *core.Middlebox {
		return e.middlebox(t, "mb.example", core.ClientSide)
	})
	// Offsets count from the start of the bulk stream, which follows the
	// handshake and the steady-state exchange's one small record.
	bulk := h + int64(len(steadyState)+recordOverhead)
	for _, tc := range []struct {
		name   string
		offset int64
	}{
		// ~24KiB in: past the first record, inside a burst the relay
		// drains as multi-record batches.
		{"ciphertext", 24 * 1024},
		// The version byte of the second bulk record's header.
		{"header", fullRecord + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := core.NewRelayPool(4)
			defer pool.Close()
			base := goleak.Base()
			spec := netsim.FaultSpec{Kind: netsim.FaultCorrupt, Offset: bulk + tc.offset, Seed: 11, Dir: netsim.DirAToB}
			mb := e.middlebox(t, "mb.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
				cfg.RelayPool = pool
			})
			clientEnd, serverEnd, handleDone := buildTrackedChain(spec, mb)

			srvCh := make(chan *core.Session, 1)
			go func() {
				s, _ := core.Accept(serverEnd, e.serverConfig())
				srvCh <- s
			}()
			client, err := core.Dial(clientEnd, e.clientConfig())
			if err != nil {
				t.Fatalf("handshake must clear a mid-data fault: %v", err)
			}
			server := <-srvCh
			if server == nil {
				t.Fatal("server handshake failed")
			}
			// Prove the pipeline engaged before the fault can land: the
			// reply crosses a data plane the request has already waited
			// for, so it is a pool job whatever the scheduling.
			exchange(t, client, server, steadyState, "ack")
			if st := pool.Stats(); st.RecordsProcessed == 0 {
				t.Fatal("relay pool processed no records — the pipeline never engaged")
			}

			out := pumpBothDirections(t, client, server)
			// The corruption is detected by the middlebox's hop-MAC check
			// or its record reader; endpoints see the propagated alert or
			// the teardown's transport-level close.
			mangle := []core.ErrorClass{
				core.ClassIntegrity, core.ClassProtocol, core.ClassRemoteAlert,
				core.ClassReset, core.ClassCleanClose, core.ClassTimeout,
			}
			requireFaultClass(t, "client write", out.clientWrite, mangle...)
			requireFaultClass(t, "client read", out.clientRead, mangle...)
			requireFaultClass(t, "server write", out.serverWrite, mangle...)
			requireFaultClass(t, "server read", out.serverRead, mangle...)
			if mb.Stats().FaultsObserved < 1 {
				t.Fatalf("middlebox observed no fault: %+v", mb.Stats())
			}

			client.Close()
			server.Close()
			clientEnd.Close()
			serverEnd.Close()
			awaitHandle(t, handleDone)
			waitGoroutines(t, base)
		})
	}
}

// TestPipelineHopDeathMidStream: the middlebox→server hop resets while
// bulk traffic is pipelined in both directions. The committer detects
// the dead upstream, the fault path abandons reserved-but-uncommitted
// seal sequences, and the alert sealed toward the client must still
// verify — a client-side integrity error here would mean the alert
// went out at the wrong sequence number, or ahead of committed data.
func TestPipelineHopDeathMidStream(t *testing.T) {
	e := newEnv(t)
	pool := core.NewRelayPool(4)
	defer pool.Close()
	base := goleak.Base()
	mb := e.middlebox(t, "mb.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.RelayPool = pool
	})
	clientEnd, serverEnd, handleDone := buildTrackedChain(netsim.FaultSpec{}, mb)
	client, server := dialAccept(t, clientEnd, serverEnd, e.clientConfig(), e.serverConfig())
	exchange(t, client, server, "steady state", "ack")

	// Kill the mb→server hop after the pipelines have traffic in
	// flight.
	killed := make(chan struct{})
	hop := serverTransportOf(t, mb, server)
	go func() {
		defer close(killed)
		time.Sleep(20 * time.Millisecond)
		hop.Reset()
	}()

	out := pumpBothDirections(t, client, server)
	<-killed
	// The client-facing hop stayed healthy, so the client must see a
	// protocol-level signal (the propagated alert) or the teardown's
	// close — never a MAC failure, which would mean a mis-sequenced
	// alert.
	clean := []core.ErrorClass{core.ClassRemoteAlert, core.ClassReset, core.ClassCleanClose, core.ClassTimeout}
	requireFaultClass(t, "client write", out.clientWrite, clean...)
	requireFaultClass(t, "client read", out.clientRead, clean...)
	requireFaultClass(t, "server write", out.serverWrite, clean...)
	requireFaultClass(t, "server read", out.serverRead, clean...)
	if mb.Stats().FaultsObserved < 1 {
		t.Fatalf("middlebox observed no fault: %+v", mb.Stats())
	}
	if st := pool.Stats(); st.RecordsProcessed == 0 {
		t.Fatal("relay pool processed no records — the pipeline never engaged")
	}

	client.Close()
	server.Close()
	awaitHandle(t, handleDone)
	waitGoroutines(t, base)
}
