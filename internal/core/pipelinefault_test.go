package core_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/testutil/goleak"
)

// Race coverage for the relay pipeline: both directions of a
// pipelined session (bulk traffic in flight both ways) hit netsim
// faults at fixed byte offsets — ciphertext corruption landing
// mid-batch and a hop dying mid-pipeline — and must surface typed
// errors at the endpoints, keep alert ordering intact (the client must
// never see a MAC failure caused by our own out-of-sequence alert),
// and leak no goroutines. Run under -race, this is the pipeline's
// concurrency gate.

// onHop is a Link that builds hop `at` (0: client→middlebox, 1:
// middlebox→server) with build and every other hop as a clean pipe.
func onHop(at int, build func() (down, up net.Conn)) chain.Link {
	return func(hop int) (net.Conn, net.Conn, error) {
		if hop != at {
			return chain.Pipes(hop)
		}
		down, up := build()
		return down, up, nil
	}
}

const steadyState = "steady state"

// bulkStart runs one clean session and returns how many client→server
// bytes have crossed the given hop once the handshake and the
// steady-state exchange are done: where pumpBothDirections' bulk stream
// starts on that hop. The count is deterministic for a fixed env
// (measureClientHandshakeBytes says why), and a relay without a
// Processor keeps record boundaries, so an offset past it names the
// same bulk byte on either hop, run after run.
func bulkStart(t *testing.T, e *env, hop int) int64 {
	t.Helper()
	var cc *countingConn
	ch, err := chain.Wire(onHop(hop, func() (net.Conn, net.Conn) {
		down, up := netsim.Pipe()
		cc = &countingConn{Conn: down}
		return cc, up
	}), e.middlebox(t, "mb.example", core.ClientSide))
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	client, server := dialAccept(t, ch.Client, ch.Server, e.clientConfig(), e.serverConfig())
	exchange(t, client, server, steadyState, "ack")
	n := cc.wrote.Load()
	client.Close()
	server.Close()
	return n
}

// pipelinedSession wires a fresh middlebox with spec on one hop (the
// client-side end is fault end A), establishes a session over it and
// exchanges one record each way. The reply crosses a data plane the
// request has already waited for, so it is a pipelined job whatever the
// scheduling: the test fails here if the pipeline never engaged.
func pipelinedSession(t *testing.T, e *env, hop int, spec netsim.FaultSpec) (mb *core.Middlebox, ch *chain.Chain, client, server *core.Session) {
	t.Helper()
	mb = e.middlebox(t, "mb.example", core.ClientSide)
	ch, err := chain.Wire(onHop(hop, func() (net.Conn, net.Conn) { return netsim.FaultPipe(spec) }), mb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ch.Close)
	if client, server, err = chain.Establish(ch.Client, ch.Server, e.clientConfig(), e.serverConfig()); err != nil {
		t.Fatalf("handshake must clear a mid-data fault: %v", err)
	}
	exchange(t, client, server, steadyState, "ack")
	if mb.Stats().RecordsPipelined == 0 {
		t.Fatal("no record was pipelined — the pipeline never engaged")
	}
	return mb, ch, client, server
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

	// Writers stop at an error only, so every fault offset is reached.
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
	const fullRecord = 16384 + 5 + 8 + 16 // header, explicit nonce, tag
	e := newEnv(t)
	bulk := bulkStart(t, e, 0)
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
			base := goleak.Base()
			spec := netsim.FaultSpec{Kind: netsim.FaultCorrupt, Offset: bulk + tc.offset, Seed: 11, Dir: netsim.DirAToB}
			mb, ch, client, server := pipelinedSession(t, e, 0, spec)

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
			ch.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestPipelineHopDeathMidStream: the middlebox→server hop resets 24 KiB
// into the bulk stream, while bulk traffic is pipelined in both
// directions: the commit goroutine's write is the one that finds the
// dead upstream, the fault path abandons reserved-but-uncommitted seal
// sequences, and the alert sealed toward the client must still verify —
// a client-side integrity error here would mean the alert went out at
// the wrong sequence number, or ahead of committed data.
func TestPipelineHopDeathMidStream(t *testing.T) {
	e := newEnv(t)
	spec := netsim.FaultSpec{Kind: netsim.FaultReset, Offset: bulkStart(t, e, 1) + 24*1024, Dir: netsim.DirAToB}
	base := goleak.Base()
	mb, ch, client, server := pipelinedSession(t, e, 1, spec)

	out := pumpBothDirections(t, client, server)
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

	client.Close()
	server.Close()
	ch.Close()
	waitGoroutines(t, base)
}
