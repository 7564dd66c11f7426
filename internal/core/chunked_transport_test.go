package core_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// chunkedConn caps every Read at n bytes, simulating the worst-case
// stream segmentation a real TCP transport may deliver: record headers
// split across reads, payloads arriving a few bytes at a time. The
// transport Conn contract promises only stream semantics, so the whole
// session stack must work unchanged on top of this.
type chunkedConn struct {
	net.Conn
	n int
}

func (c *chunkedConn) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.Conn.Read(p)
}

// TestSessionOverChunkedTransport runs a complete mbTLS session —
// handshake, middlebox join, bidirectional application data — over a
// transport that refuses to deliver more than 3 bytes per Read on
// either endpoint. Every record parser on the path (endpoint record
// layers, the middlebox relay's raw-record reader) must reassemble
// identically to contiguous delivery; this is the integration-level
// counterpart of tls12's FuzzRecordReader differential check.
func TestSessionOverChunkedTransport(t *testing.T) {
	e := newEnv(t)
	mb := e.middlebox(t, "mb.example", core.ClientSide)
	clientEnd, serverEnd := buildChain(t, mb)
	clientConn := &chunkedConn{Conn: clientEnd, n: 3}
	serverConn := &chunkedConn{Conn: serverEnd, n: 3}

	clientSess, srvSess := dialAccept(t, clientConn, serverConn, e.clientConfig(), e.serverConfig())
	defer clientSess.Close()
	defer srvSess.Close()

	if got := len(clientSess.Middleboxes()); got != 1 {
		t.Fatalf("client sees %d middleboxes, want 1", got)
	}

	// Bidirectional echo with a payload spanning many records' worth of
	// chunked reads.
	msg := bytes.Repeat([]byte("stream-not-records "), 100)
	if _, err := clientSess.Write(msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	srvSess.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srvSess, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted by chunked delivery")
	}
	if _, err := srvSess.Write(got); err != nil {
		t.Fatalf("server write: %v", err)
	}
	clientSess.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(clientSess, back); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("echo corrupted by chunked delivery")
	}
}

// TestSessionOverChunkedTransportOneByte is the degenerate case: the
// full handshake with every byte delivered alone. Slower, so the
// payload is small; the point is that nothing anywhere assumes it can
// read a header in one call.
func TestSessionOverChunkedTransportOneByte(t *testing.T) {
	if testing.Short() {
		t.Skip("1-byte delivery is slow under -short")
	}
	e := newEnv(t)
	left, right := netsim.Pipe()
	clientConn := &chunkedConn{Conn: left, n: 1}

	clientSess, srvSess := dialAccept(t, clientConn, right, e.clientConfig(), e.serverConfig())
	defer clientSess.Close()
	defer srvSess.Close()

	msg := []byte("one byte at a time")
	if _, err := clientSess.Write(msg); err != nil {
		t.Fatal(err)
	}
	srvSess.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srvSess, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}
