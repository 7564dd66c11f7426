// Package conformancetest asserts the transport Conn contract
// (internal/transport's package comment) against a backend. Both the
// netsim and tcpx test suites call Run with a factory for their
// backend, so every clause — arbitrary segmentation, coalescing reads,
// flow-controlled bulk transfer, read and write deadlines, Close racing
// blocked I/O, close-notify drain ordering, goroutine accounting — is
// enforced on
// the simulated and the real transport by the same code. A semantic
// difference between the backends is a test failure here, not a
// production surprise.
package conformancetest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/goleak"
)

// Pair is one connected conn pair; A is the dialer end. Release (may
// be nil) tears down any factory-scoped machinery after the conns are
// closed. Ideal marks an in-memory link with no latency, where what
// the peer has finished writing has arrived.
type Pair struct {
	A, B    net.Conn
	Release func()
	Ideal   bool
}

// Factory mints a fresh Pair for one subtest.
type Factory func(t *testing.T) Pair

// shortWait bounds how long "promptly" may take: an unblock that needs
// more than this is a hang, not a slow scheduler.
const shortWait = 3 * time.Second

// Run drives every conformance subtest against the backend. Each
// subtest gets its own pair; the parent test fails if any goroutine
// spawned along the way outlives the run.
func Run(t *testing.T, f Factory) {
	goleak.Check(t)
	sub := func(name string, test func(t *testing.T, p Pair)) {
		t.Run(name, func(t *testing.T) {
			p := f(t)
			defer func() {
				p.A.Close()
				p.B.Close()
				if p.Release != nil {
					p.Release()
				}
			}()
			test(t, p)
		})
	}
	sub("Echo", testEcho)
	sub("OneByteSegmentation", testOneByteSegmentation)
	sub("ReadCoalescesWrites", testCoalescing)
	sub("BulkTransferPartialWrites", testBulkTransfer)
	sub("DeadlineExpiresWaitingReads", testDeadlineExpiry)
	sub("DeadlineMidRecordThenResume", testDeadlineMidRecord)
	sub("WriteDeadlineThenResume", testWriteDeadline)
	sub("CloseUnblocksOwnRead", testCloseUnblocksRead)
	sub("CloseUnblocksOwnWrite", testCloseUnblocksWrite)
	sub("PeerCloseDrainsThenEOF", testCloseDrain)
	sub("PeerCloseUnblocksRead", testPeerCloseUnblocksRead)
}

// readFull reads exactly len(buf) bytes under a generous deadline.
func readFull(t *testing.T, c net.Conn, buf []byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
	defer c.SetReadDeadline(time.Time{})         //nolint:errcheck
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", len(buf), err)
	}
}

// testEcho is the baseline: bytes written on one end arrive intact on
// the other, in both directions, across several round trips.
func testEcho(t *testing.T, p Pair) {
	for i := 0; i < 3; i++ {
		msg := []byte("ping over the transport")
		if _, err := p.A.Write(msg); err != nil {
			t.Fatalf("A write: %v", err)
		}
		got := make([]byte, len(msg))
		readFull(t, p.B, got)
		if !bytes.Equal(got, msg) {
			t.Fatalf("B read %q, want %q", got, msg)
		}
		if _, err := p.B.Write(got); err != nil {
			t.Fatalf("B write: %v", err)
		}
		readFull(t, p.A, got)
		if !bytes.Equal(got, msg) {
			t.Fatalf("A read %q, want %q", got, msg)
		}
	}
}

// testOneByteSegmentation delivers a message under maximal
// fragmentation on both sides: the writer issues 1-byte writes, the
// reader 1-byte reads. Record parsing above the transport must
// tolerate exactly this (TCP may legally segment anywhere).
func testOneByteSegmentation(t *testing.T, p Pair) {
	msg := []byte("segmentation is not record-aligned")
	done := make(chan error, 1)
	go func() {
		for i := range msg {
			if _, err := p.A.Write(msg[i : i+1]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := make([]byte, 0, len(msg))
	one := make([]byte, 1)
	for len(got) < len(msg) {
		p.B.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
		n, err := p.B.Read(one)
		if err != nil {
			t.Fatalf("1-byte read after %d bytes: %v", len(got), err)
		}
		if n > 1 {
			t.Fatalf("Read(1-byte buf) returned %d", n)
		}
		got = append(got, one[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatalf("1-byte writes: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("reassembled %q, want %q", got, msg)
	}
}

// pattern returns n bytes of a stream whose byte at position i is
// i mod 251, starting at pos: checkable however it was cut.
func pattern(pos, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((pos + i) % 251)
	}
	return b
}

// testCoalescing: a Read returns what has arrived, not what one Write
// carried. The peer finishes many small writes before the first Read;
// a buffer with room for all of them must need fewer Reads than there
// were Writes, and on an ideal link exactly one.
func testCoalescing(t *testing.T, p Pair) {
	const writes, size = 64, 100
	for i := 0; i < writes; i++ {
		if _, err := p.A.Write(pattern(i*size, size)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	buf := make([]byte, 2*writes*size)
	got, reads := 0, 0
	for got < writes*size {
		p.B.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
		n, err := p.B.Read(buf[got:])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got, err)
		}
		got += n
		reads++
	}
	if !bytes.Equal(buf[:got], pattern(0, writes*size)) {
		t.Fatalf("coalesced reads returned %d bytes that are not the stream written", got)
	}
	if reads >= writes || (p.Ideal && reads != 1) {
		t.Fatalf("%d writes finished before the first Read took %d Reads to drain (ideal link: %v)", writes, reads, p.Ideal)
	}
}

// testBulkTransfer pushes well past any flow-control window (netsim's
// is 1 MiB) with odd-sized writes while the peer drains concurrently,
// asserting nothing is lost, duplicated, or reordered. This is where
// short reads and partial-write blocking actually happen.
func testBulkTransfer(t *testing.T, p Pair) {
	const total = 4 << 20
	const writeChunk = 999 // deliberately unaligned
	payload := make([]byte, writeChunk)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	wantSum := sha256.New()
	done := make(chan error, 1)
	go func() {
		sent := 0
		for sent < total {
			chunk := payload
			if rem := total - sent; rem < len(chunk) {
				chunk = chunk[:rem]
			}
			if _, err := p.A.Write(chunk); err != nil {
				done <- err
				return
			}
			wantSum.Write(chunk)
			sent += len(chunk)
		}
		done <- nil
	}()

	gotSum := sha256.New()
	buf := make([]byte, 64<<10)
	received := 0
	for received < total {
		p.B.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
		n, err := p.B.Read(buf)
		if n > 0 {
			gotSum.Write(buf[:n])
			received += n
		}
		if err != nil {
			t.Fatalf("bulk read after %d/%d bytes: %v", received, total, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("bulk write: %v", err)
	}
	if received != total {
		t.Fatalf("received %d bytes, want %d", received, total)
	}
	if !bytes.Equal(gotSum.Sum(nil), wantSum.Sum(nil)) {
		t.Fatal("bulk transfer corrupted: digests differ")
	}
}

// isTimeout reports err is a net.Error with Timeout() true.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// testDeadlineExpiry: a Read that must wait past its deadline fails
// with a timeout error, and clearing the deadline restores a usable
// connection.
func testDeadlineExpiry(t *testing.T, p Pair) {
	p.A.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	buf := make([]byte, 16)
	start := time.Now()
	n, err := p.A.Read(buf)
	if n != 0 || !isTimeout(err) {
		t.Fatalf("read past deadline = (%d, %v), want timeout net.Error", n, err)
	}
	if waited := time.Since(start); waited > shortWait {
		t.Fatalf("deadline honored after %v, want prompt expiry", waited)
	}
	// A timed-out connection is not dead: clear and carry on.
	p.A.SetReadDeadline(time.Time{}) //nolint:errcheck
	if _, err := p.B.Write([]byte("after timeout")); err != nil {
		t.Fatalf("peer write after timeout: %v", err)
	}
	got := make([]byte, len("after timeout"))
	readFull(t, p.A, got)
	if string(got) != "after timeout" {
		t.Fatalf("post-timeout read %q", got)
	}
}

// testDeadlineMidRecord expires a deadline with a record half
// delivered: the delivered prefix reads fine, the wait for the rest
// times out, and the suffix arrives intact once the deadline clears —
// the record layer depends on resumability here.
func testDeadlineMidRecord(t *testing.T, p Pair) {
	if _, err := p.A.Write([]byte("hel")); err != nil {
		t.Fatalf("prefix write: %v", err)
	}
	got := make([]byte, 3)
	readFull(t, p.B, got)
	if string(got) != "hel" {
		t.Fatalf("prefix read %q", got)
	}
	p.B.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	if n, err := p.B.Read(make([]byte, 2)); n != 0 || !isTimeout(err) {
		t.Fatalf("mid-record read = (%d, %v), want timeout", n, err)
	}
	p.B.SetReadDeadline(time.Time{}) //nolint:errcheck
	if _, err := p.A.Write([]byte("lo")); err != nil {
		t.Fatalf("suffix write: %v", err)
	}
	rest := make([]byte, 2)
	readFull(t, p.B, rest)
	if string(rest) != "lo" {
		t.Fatalf("suffix read %q, want %q", rest, "lo")
	}
}

// testWriteDeadline fills the connection until a Write has to wait for
// a peer that is not reading: the wait ends at the write deadline with
// a timeout error, and once the deadline is cleared and the peer reads,
// the stream continues exactly after the bytes the failed Writes
// reported.
func testWriteDeadline(t *testing.T, p Pair) {
	const chunk = 64 << 10
	p.A.SetWriteDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
	start := time.Now()
	sent := 0
	var err error
	for err == nil && sent < 1<<30 {
		var n int
		n, err = p.A.Write(pattern(sent, chunk))
		sent += n
	}
	if !isTimeout(err) {
		t.Fatalf("writes against a non-reading peer ended with %v after %d bytes, want a timeout net.Error", err, sent)
	}
	if waited := time.Since(start); waited > shortWait {
		t.Fatalf("write deadline honored after %v, want prompt expiry", waited)
	}
	p.A.SetWriteDeadline(time.Time{}) //nolint:errcheck
	total := sent + chunk
	done := make(chan error, 1)
	go func() {
		_, err := p.A.Write(pattern(sent, chunk))
		done <- err
	}()
	buf := make([]byte, chunk)
	for got := 0; got < total; {
		p.B.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
		n, err := p.B.Read(buf)
		if err != nil {
			t.Fatalf("drain after %d/%d bytes: %v", got, total, err)
		}
		if !bytes.Equal(buf[:n], pattern(got, n)) {
			t.Fatalf("stream diverges within %d bytes of position %d (timed-out writes reported %d sent)", n, got, sent)
		}
		got += n
	}
	if err := <-done; err != nil {
		t.Fatalf("write after the deadline was cleared: %v", err)
	}
}

// closedErrOK accepts the errors a same-end close may surface on
// blocked or subsequent I/O: the net package's ErrClosed (tcpx),
// io.ErrClosedPipe (netsim), or a reset.
func closedErrOK(err error) bool {
	return err != nil && err != io.EOF
}

// testCloseUnblocksRead: closing a conn promptly fails its own blocked
// Read.
func testCloseUnblocksRead(t *testing.T, p Pair) {
	res := make(chan error, 1)
	go func() {
		_, err := p.A.Read(make([]byte, 16))
		res <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read park
	p.A.Close()
	select {
	case err := <-res:
		if !closedErrOK(err) {
			t.Fatalf("blocked read after own close returned %v, want an error", err)
		}
	case <-time.After(shortWait):
		t.Fatal("own Close did not unblock a parked Read")
	}
	if _, err := p.A.Read(make([]byte, 16)); !closedErrOK(err) {
		t.Fatalf("read after close = %v, want an error", err)
	}
}

// testCloseUnblocksWrite: closing a conn promptly fails its own Write
// blocked on flow control (peer not draining).
func testCloseUnblocksWrite(t *testing.T, p Pair) {
	res := make(chan error, 1)
	go func() {
		// Push until the window / kernel buffers are full; with nobody
		// reading on B this must block long before 64 MiB.
		chunk := make([]byte, 1<<20)
		for i := 0; i < 64; i++ {
			if _, err := p.A.Write(chunk); err != nil {
				res <- err
				return
			}
		}
		res <- nil
	}()
	time.Sleep(100 * time.Millisecond) // let the write block
	p.A.Close()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("64 MiB of writes completed against a non-reading peer")
		}
	case <-time.After(shortWait):
		t.Fatal("own Close did not unblock a parked Write")
	}
}

// testCloseDrain asserts close-notify ordering: everything the peer
// wrote before Close is readable, then EOF — never EOF first, never
// data loss. The record layer writes the close_notify alert and then
// closes; the peer must see the alert.
func testCloseDrain(t *testing.T, p Pair) {
	const total = 256 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.A.Write(payload)
		p.A.Close()
		done <- err
	}()

	got := make([]byte, 0, total)
	buf := make([]byte, 32<<10)
	var readErr error
	for {
		p.B.SetReadDeadline(time.Now().Add(shortWait)) //nolint:errcheck
		n, err := p.B.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			readErr = err
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("write before close: %v", err)
	}
	if readErr != io.EOF {
		t.Fatalf("drain ended with %v, want io.EOF", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("drained %d bytes before EOF, want all %d intact", len(got), total)
	}
}

// testPeerCloseUnblocksRead: a reader parked on an idle conn observes
// EOF promptly when the peer closes.
func testPeerCloseUnblocksRead(t *testing.T, p Pair) {
	var wg sync.WaitGroup
	res := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := p.A.Read(make([]byte, 16))
		res <- err
	}()
	time.Sleep(50 * time.Millisecond)
	p.B.Close()
	select {
	case err := <-res:
		if err != io.EOF {
			t.Fatalf("read after peer close = %v, want io.EOF", err)
		}
	case <-time.After(shortWait):
		t.Fatal("peer Close did not unblock a parked Read")
	}
	wg.Wait()
}
