package core_test

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/netsim"
)

// hostedOnce hosts one middlebox session the way a session host does —
// HandleHosted — and lets the test wait for its data plane and for its
// teardown.
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
	// Enter: the data-plane install (1), one per data-plane job — ping
	// and pong pipelined, the client's close_notify inline (1 each) —
	// and the data plane's retirement at teardown (1). Reserving a job's
	// sequences is gate arithmetic on the host and enters nothing. It
	// was 14 while a vault kept copies of the secondary and hop keys:
	// two stores and a namespace wipe, three Enters where the retirement
	// is one. Deleting the copies alone makes 8, and leaves every
	// session's data plane in enclave memory for good.
	const wantTransitions = 2 * (1 + 1 + 1 + 1 + 1)
	const n = 200
	// The garbage budget (DESIGN.md §10): 73.0 KiB and about 600 objects
	// a session before it.
	const ceilingKiB, ceilingMallocs = 58, 480

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
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("resumed session: %d transitions, %.1f KiB allocated in %.0f objects", wantTransitions, perSession, mallocs)
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	if perSession > ceilingKiB {
		t.Errorf("resumed session allocates %.1f KiB, ceiling %d KiB", perSession, ceilingKiB)
	}
	if mallocs > ceilingMallocs {
		t.Errorf("resumed session allocates %.0f objects, ceiling %d", mallocs, ceilingMallocs)
	}
}

// gatedConn parks its Reads while held, so that what the peer writes
// meanwhile is all queued when the reader behind it comes back.
type gatedConn struct {
	net.Conn
	mu   sync.Mutex
	open *sync.Cond
	held bool
}

func (g *gatedConn) hold(held bool) {
	g.mu.Lock()
	g.held = held
	g.open.Broadcast()
	g.mu.Unlock()
}

func (g *gatedConn) Read(p []byte) (int, error) {
	g.mu.Lock()
	for g.held {
		g.open.Wait()
	}
	g.mu.Unlock()
	return g.Conn.Read(p)
}

// writeCounter counts the Writes through a conn, and keeps a copy of
// the first. Every data-plane job commits with exactly one outbound
// write, so on the middlebox's upstream conn it counts client→server
// jobs without asking the relay.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
	mu     sync.Mutex
	first  []byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	if w.writes.Add(1) == 1 {
		w.mu.Lock()
		w.first = bytes.Clone(p)
		w.mu.Unlock()
	}
	return w.Conn.Write(p)
}

func (w *writeCounter) firstWrite() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.first
}

// TestBurstRelayCostPerBatch pins what a backlog of small records costs
// an enclave middlebox (DESIGN.md §14): per-record costs are per-batch
// costs. N 512-byte records are queued ahead of the relay while its
// source is gated, so batch sizes follow from the read buffer and
// maxRelayBatch, not from scheduling: a read drains what has arrived, a
// job carries up to 32 records, and the enclave is entered once a job —
// pipelined to the direction's commit goroutine, or inline because a
// Processor lives in the enclave with the keys. One record per read and
// per job — the relay before netsim reads drained — is 2 N transitions
// (and was 4 N then).
func TestBurstRelayCostPerBatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		processor bool
	}{
		{"pipelined", false},
		{"processor in enclave", true},
	} {
		t.Run(tc.name, func(t *testing.T) { burstRelayCost(t, tc.processor) })
	}
}

func burstRelayCost(t *testing.T, processor bool) {
	e := newEnv(t)
	encl := e.Platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0"})
	mb := e.middlebox(t, "sgx-proxy.example", core.ClientSide, func(cfg *core.MiddleboxConfig) {
		cfg.Enclave = encl
		if processor {
			cfg.NewProcessor = func() core.Processor {
				return core.ProcessorFunc(func(_ core.Direction, chunk []byte) ([]byte, error) { return chunk, nil })
			}
		}
	})

	left, right := netsim.Pipe()
	upL, upR := netsim.Pipe()
	src := &gatedConn{Conn: right}
	src.open = sync.NewCond(&src.mu)
	up := &writeCounter{Conn: upL}
	host := hostedOnce{make(chan struct{}), make(chan struct{})}
	go func() {
		defer close(host.done)
		mb.HandleHosted(src, up, &host) //nolint:errcheck
	}()
	client, server := dialAccept(t, left, upR, e.clientConfig(), e.serverConfig())
	<-host.established
	exchange(t, client, server, "ping", "pong")

	// The relay is parked inside a Read. Hold the gate, then send one
	// record to take it through that Read: once the server has the
	// record, the relay's next Read is one that waits at the gate.
	src.hold(true)
	if _, err := client.Write([]byte("mark")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(server, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}

	const n, size = 1024, 512 // 554 KB of records: inside netsim's window
	const wantJobs = 38       // what the 72 KiB read buffer and the 32-record cap make of them
	payload := core.RandomPlaintext(size)
	before, writes, crossed := mb.Stats(), up.writes.Load(), encl.Transitions()
	for i := 0; i < n; i++ {
		if _, err := client.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	src.hold(false)
	got := make([]byte, n*size)
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat(payload, n)) {
		t.Fatal("burst corrupted in the relay")
	}
	jobs, crossed := up.writes.Load()-writes, encl.Transitions()-crossed
	pipelined := mb.Stats().RecordsPipelined - before.RecordsPipelined
	t.Logf("%d records: %d jobs (%.1f records a job), %d enclave transitions, %d pipelined", n, jobs, float64(n)/float64(jobs), crossed, pipelined)
	// A Processor session runs every job on the relay goroutine: the
	// hand-off to the commit goroutine measured slower on rr_http
	// (EXPERIMENTS.md, "Processor sessions stay inline"). Without one,
	// every job is the commit goroutine's.
	wantPipelined := int64(n)
	if processor {
		wantPipelined = 0
	}
	if pipelined != wantPipelined {
		t.Errorf("%d records pipelined, want %d", pipelined, wantPipelined)
	}
	if jobs != wantJobs {
		t.Errorf("%d records took %d jobs, want %d", n, jobs, wantJobs)
	}
	if crossed != 2*jobs {
		t.Errorf("%d jobs cost %d enclave transitions, want %d: one Enter a job", jobs, crossed, 2*jobs)
	}

	client.Close()
	if _, err := server.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server read after client close: %v, want EOF", err)
	}
	<-host.done
	server.Close()
}
