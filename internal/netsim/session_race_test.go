package netsim_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
)

// raceSessions is how many clean concurrent sessions the test drives
// through one shared middlebox host (the acceptance floor is 64).
const raceSessions = 64

// raceShards fixes the hosts' shard count, so the test exercises
// cross-shard admission, work stealing, and the merged metrics path
// even on machines where GOMAXPROCS would give a single shard.
const raceShards = 8

// TestConcurrentSessionsThroughFaultyNetwork runs a fleet of complete
// mbTLS sessions at once through one shared Network and one shared
// session-host pair — 64 over clean paths, one over a path whose
// client→middlebox link carries a seeded reset — and requires every
// clean session to stay fully functional while the faulty one fails.
// Run under -race (tier-1 does), this exercises the fault state
// machine, the mux, the relay goroutines, the host registry, and the
// shared bounded buffer pool concurrently: a fault on one session must
// never bleed into another, and sessions sharing a host must not share
// fate.
func TestConcurrentSessionsThroughFaultyNetwork(t *testing.T) {
	ca, err := certs.NewCA("netsim race root")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.Issue("origin.example", []string{"origin.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbCert, err := ca.Issue("mb.example", []string{"mb.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}

	n := netsim.NewNetwork()
	n.SetFaultPolicy(func(from, to string) netsim.FaultSpec {
		if from == "client-bad" {
			// Mid-handshake reset on the dialer's (end A's) traffic.
			return netsim.FaultSpec{Kind: netsim.FaultReset, Offset: 300, Seed: 42, Dir: netsim.DirAToB}
		}
		return netsim.FaultSpec{}
	})

	srvLn, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	defer srvLn.Close()
	mbLn, err := n.Listen("mb")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()

	scfg := &core.ServerConfig{
		TLS:               &tls12.Config{Certificate: serverCert},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: ca.Pool()},
		HandshakeTimeout:  30 * time.Second,
	}
	srvHost, err := sessionhost.New(sessionhost.Config{
		Name:        "server",
		MaxSessions: 2 * raceSessions,
		Shards:      raceShards,
		Handler: sessionhost.NewServerHandler(scfg, func(s *core.Session) error {
			buf := make([]byte, 256)
			nr, err := s.Read(buf)
			if err != nil {
				return err
			}
			_, err = s.Write(buf[:nr])
			return err
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	go srvHost.Serve(srvLn) //nolint:errcheck
	defer srvHost.Close()   //nolint:errcheck

	pool := tls12.NewRecordBufPool(2 * raceSessions)
	mb, err := core.NewMiddlebox(core.MiddleboxConfig{
		Name: "mb.example", Mode: core.ClientSide, Certificate: mbCert,
		BufPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	mbHost, err := sessionhost.New(sessionhost.Config{
		Name:        "mb",
		MaxSessions: 2 * raceSessions,
		Shards:      raceShards,
		BufPool:     pool,
		Handler: sessionhost.NewMiddleboxHandler(mb, func() (net.Conn, error) {
			return n.Dial("mb", "server")
		}),
		MiddleboxStats: mb.Stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	go mbHost.Serve(mbLn) //nolint:errcheck
	defer mbHost.Close()  //nolint:errcheck

	ccfg := func() *core.ClientConfig {
		return &core.ClientConfig{
			TLS:              &tls12.Config{RootCAs: ca.Pool(), ServerName: "origin.example"},
			HandshakeTimeout: 30 * time.Second,
		}
	}

	var wg sync.WaitGroup
	okErrs := make(chan error, raceSessions)
	for i := 0; i < raceSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("client-ok-%d", i)
			conn, err := n.Dial(name, "mb")
			if err != nil {
				okErrs <- fmt.Errorf("%s dial: %w", name, err)
				return
			}
			sess, err := core.Dial(conn, ccfg())
			if err != nil {
				okErrs <- fmt.Errorf("%s handshake: %w", name, err)
				return
			}
			defer sess.Close()
			msg := []byte(fmt.Sprintf("through clean path %d", i))
			if _, err := sess.Write(msg); err != nil {
				okErrs <- fmt.Errorf("%s write: %w", name, err)
				return
			}
			sess.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			buf := make([]byte, len(msg))
			if _, err := readFull(sess, buf); err != nil {
				okErrs <- fmt.Errorf("%s read: %w", name, err)
				return
			}
			if string(buf) != string(msg) {
				okErrs <- fmt.Errorf("%s echo = %q, want %q", name, buf, msg)
			}
		}(i)
	}

	badDone := make(chan error, 1)
	go func() {
		conn, err := n.Dial("client-bad", "mb")
		if err != nil {
			badDone <- err
			return
		}
		sess, err := core.Dial(conn, ccfg())
		if err == nil {
			sess.Close()
		}
		badDone <- err
	}()

	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	select {
	case <-fleetDone:
	case <-time.After(60 * time.Second):
		t.Fatal("clean-path fleet wedged")
	}
	close(okErrs)
	for err := range okErrs {
		t.Errorf("clean-path session failed beside a faulty one: %v", err)
	}

	select {
	case err := <-badDone:
		if err == nil {
			t.Error("reset-at-300 path produced a working session")
		} else if cls := core.ClassifyError(err); !cls.Transient() && cls != core.ClassCleanClose {
			t.Errorf("faulty path surfaced class %s (%v), want a transport-failure class", cls, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("faulty-path session wedged")
	}

	m := mbHost.Snapshot()
	if m.Accepted < raceSessions+1 {
		t.Errorf("middlebox host admitted %d sessions, want >= %d", m.Accepted, raceSessions+1)
	}
	if len(m.PerShard) != raceShards {
		t.Fatalf("metrics carry %d shards, want %d", len(m.PerShard), raceShards)
	}
	var perShardSum uint64
	busy := 0
	for _, sm := range m.PerShard {
		perShardSum += sm.Accepted
		if sm.Accepted > 0 {
			busy++
		}
	}
	if perShardSum != m.Accepted {
		t.Errorf("per-shard accepted sums to %d, merged total is %d", perShardSum, m.Accepted)
	}
	if busy != raceShards {
		t.Errorf("round-robin admission used %d/%d shards", busy, raceShards)
	}
	if st := pool.Stats(); st.Gets == 0 {
		t.Error("host-scoped buffer pool was never used by the relay")
	}
}

func readFull(r interface{ Read([]byte) (int, error) }, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
