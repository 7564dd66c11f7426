package tcpx_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/transport/conformancetest"
	"repro/internal/transport/tcpx"
)

// loopbackFactory mints conformance pairs over real loopback TCP
// through the given transport.
func loopbackFactory(tr *tcpx.Transport) conformancetest.Factory {
	return func(t *testing.T) conformancetest.Pair {
		ln, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("tcp listen: %v", err)
		}
		type accepted struct {
			c   net.Conn
			err error
		}
		acc := make(chan accepted, 1)
		go func() {
			c, err := ln.Accept()
			acc <- accepted{c, err}
		}()
		a, err := tr.Dial(ln.Addr().String())
		if err != nil {
			ln.Close()
			t.Fatalf("tcp dial: %v", err)
		}
		got := <-acc
		if got.err != nil {
			a.Close()
			ln.Close()
			t.Fatalf("tcp accept: %v", got.err)
		}
		return conformancetest.Pair{A: a, B: got.c, Release: func() { ln.Close() }}
	}
}

// TestTCPConformance runs the full transport conformance suite over
// real loopback sockets: the *net.TCPConn the transport hands out,
// NODELAY on as Go sets it.
func TestTCPConformance(t *testing.T) {
	conformancetest.Run(t, loopbackFactory(tcpx.Default()))
}

// TestListenShards covers the SO_REUSEPORT fan-out: n listeners must
// share one port, and connections landing on any of them must work.
func TestListenShards(t *testing.T) {
	tr := tcpx.New(tcpx.Config{ReusePort: true})
	lns, err := tr.ListenShards("127.0.0.1:0", 4)
	if err != nil {
		t.Fatalf("ListenShards: %v", err)
	}
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addr := lns[0].Addr().String()
	for _, ln := range lns[1:] {
		if got := ln.Addr().String(); got != addr {
			t.Fatalf("shard listener bound %s, want shared %s", got, addr)
		}
	}
	// Every listener accepts; dial until each has seen at least one
	// connection or we hit the attempt budget (the kernel hashes
	// connections across REUSEPORT sockets by 4-tuple, so spread is
	// probabilistic — assert reachability, not distribution).
	done := make(chan int, len(lns))
	for i, ln := range lns {
		go func(i int, ln net.Listener) {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
				done <- i
			}
		}(i, ln)
	}
	for i := 0; i < 8; i++ {
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial shared port: %v", err)
		}
		// Wait for some listener to observe the connection.
		<-done
		c.Close()
	}
}

// TestListenShardsSingle pins the fallback: n <= 1 or ReusePort off
// yields exactly one listener.
func TestListenShardsSingle(t *testing.T) {
	tr := tcpx.Default()
	lns, err := tr.ListenShards("127.0.0.1:0", 4)
	if err != nil {
		t.Fatalf("ListenShards: %v", err)
	}
	defer lns[0].Close()
	if len(lns) != 1 {
		t.Fatalf("ListenShards without ReusePort returned %d listeners, want 1", len(lns))
	}
}

// TestTransportName pins the backend name benchmarks key on.
func TestTransportName(t *testing.T) {
	if got := tcpx.Default().Name(); got != "tcp" {
		t.Fatalf("Name() = %q, want %q", got, "tcp")
	}
}

// TestTCPDataPlaneAllocFree pins the acceptance bar that the tcpx
// data plane allocates nothing per operation: Write and Read go
// straight to the socket with the caller's buffer.
func TestTCPDataPlaneAllocFree(t *testing.T) {
	p := loopbackFactory(tcpx.Default())(t)
	defer func() { p.A.Close(); p.B.Close(); p.Release() }()

	msg := make([]byte, 1024)
	buf := make([]byte, 2048)
	p.B.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.A.Write(msg); err != nil {
			t.Fatal(err)
		}
		total := 0
		for total < len(msg) {
			n, err := p.B.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
	})
	if allocs != 0 {
		t.Fatalf("TCP data plane allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTCPConnReadWrite measures the conn's round-trip
// cost over loopback; run with -benchmem to watch the 0 B/op floor.
func BenchmarkTCPConnReadWrite(b *testing.B) {
	tr := tcpx.Default()
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acc <- c
		}
	}()
	a, err := tr.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c := <-acc
	defer c.Close()

	msg := make([]byte, 4096)
	buf := make([]byte, 8192)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(msg); err != nil {
			b.Fatal(err)
		}
		total := 0
		for total < len(msg) {
			n, err := c.Read(buf)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
	}
}
