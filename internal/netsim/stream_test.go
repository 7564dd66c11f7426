package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
)

// epoch is where the tests' manual clocks start.
var epoch = time.Unix(1_700_000_000, 0)

// pattern returns n bytes of the stream that starts at position pos, so
// a reader can check any slice of it without knowing how it was cut.
func pattern(pos, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((pos + i) % 251)
	}
	return b
}

// readSome reads once into a buffer of size n and returns what came.
func readSome(t *testing.T, c *Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := c.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return buf[:got]
}

// poll reads once without waiting — its deadline is the link clock's
// now — and returns what had arrived, nothing on a timeout.
func poll(t *testing.T, c *Conn, n int) []byte {
	t.Helper()
	c.SetReadDeadline(c.Clock().Now()) //nolint:errcheck
	buf := make([]byte, n)
	got, err := c.Read(buf)
	if err != nil && !isTimeout(err) {
		t.Fatalf("read: %v", err)
	}
	return buf[:got]
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestReadDrainsWhatHasArrived: on an ideal link one Read returns the
// bytes of every finished write, up to the caller's buffer, and a short
// buffer leaves the rest for the next Read.
func TestReadDrainsWhatHasArrived(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const writes, size = 40, 100
	for i := 0; i < writes; i++ {
		if _, err := a.Write(pattern(i*size, size)); err != nil {
			t.Fatal(err)
		}
	}
	if got := readSome(t, b, 250); !bytes.Equal(got, pattern(0, 250)) {
		t.Fatalf("partial read returned %d bytes, want the first 250 of the stream", len(got))
	}
	rest := writes*size - 250
	if got := readSome(t, b, 1<<16); !bytes.Equal(got, pattern(250, rest)) {
		t.Fatalf("draining read returned %d bytes, want the remaining %d", len(got), rest)
	}
	if queued, delivered := b.Stats(); queued != writes*size || delivered != queued {
		t.Fatalf("Stats() = (%d, %d), want both %d", queued, delivered, writes*size)
	}
}

// TestRingWrapAndGrowth walks the ring through the states a write can
// find it in: empty, wrapped (tail behind head), and full while wrapped
// (growth has to linearise two pieces). Every byte is checked against
// its stream position.
func TestRingWrapAndGrowth(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	wpos, rpos := 0, 0
	write := func(n int) {
		t.Helper()
		if _, err := a.Write(pattern(wpos, n)); err != nil {
			t.Fatal(err)
		}
		wpos += n
	}
	read := func(n int) {
		t.Helper()
		got := readSome(t, b, n)
		if len(got) != n || !bytes.Equal(got, pattern(rpos, n)) {
			t.Fatalf("read at %d: got %d bytes, want %d matching the stream", rpos, len(got), n)
		}
		rpos += n
	}
	s := a.out
	write(64) // ring sized to the first write, exactly
	if len(s.ring) != 64 {
		t.Fatalf("ring grew to %d for a 64-byte write, want 64 (no floor)", len(s.ring))
	}
	read(48)  // head 48, 16 queued up to the end of the ring
	write(20) // lands at the front: the queue is wrapped
	read(30)  // a read across the wrap: 16 from the end, 14 from the front
	if len(s.ring) != 64 || s.head != 14 {
		t.Fatalf("ring %d head %d after a wrapped read, want 64 and 14", len(s.ring), s.head)
	}
	write(50) // a write across the wrap: 44 to the end, 6 at the front
	read(10)  // a partial read; 46 queued, still wrapped
	if len(s.ring) != 64 || s.head != 24 {
		t.Fatalf("ring %d head %d before growth, want 64 and 24", len(s.ring), s.head)
	}
	write(100) // growth mid-wrap: two pieces linearise into the new ring
	if len(s.ring) != 146 || s.head != 0 {
		t.Fatalf("ring %d head %d after growth, want 146 (queued+write) and 0", len(s.ring), s.head)
	}
	read(20)
	read(126) // drains: the next write starts at the front again
	if s.head != 0 {
		t.Fatalf("head %d on an empty ring, want 0", s.head)
	}
	write(146)
	write(10) // doubling wins over queued+write
	if len(s.ring) != 292 {
		t.Fatalf("ring %d, want 292 (doubled)", len(s.ring))
	}
	read(156)
}

// TestWindowOvershoot: the window admits a write while fewer than
// maxBuf bytes are unread, whatever the write's size; the next write
// parks until a read brings the queue back under it.
func TestWindowOvershoot(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := a.Write(make([]byte, defaultWindow-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(make([]byte, 4096)); err != nil { // overshoots by its own size
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte{1})
		parked <- err
	}()
	select {
	case err := <-parked:
		t.Fatalf("write past a full window returned %v without a read", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := io.ReadFull(b, make([]byte, 4096)); err != nil { // queue: window-1
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked write after the reader made room: %v", err)
	}
}

// TestResetDiscardsQueuedBytes: Reset with bytes queued fails both ends
// with ErrReset, returns none of the bytes, and frees the ring.
func TestResetDiscardsQueuedBytes(t *testing.T) {
	for _, cfg := range []LinkConfig{{}, {Latency: time.Hour}} {
		a, b := NewLink(cfg)
		if _, err := a.Write(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		if n, err := b.Read(make([]byte, 16)); n != 0 || !errors.Is(err, ErrReset) {
			t.Fatalf("read after reset = (%d, %v), want ErrReset", n, err)
		}
		if _, err := a.Write([]byte{1}); !errors.Is(err, ErrReset) {
			t.Fatalf("write after reset = %v, want ErrReset", err)
		}
		if a.out.ring != nil || a.out.marks != nil {
			t.Fatal("reset kept the queued bytes' memory")
		}
		if queued, delivered := b.Stats(); queued != 1000 || delivered != 0 {
			t.Fatalf("Stats() after reset = (%d, %d), want (1000, 0)", queued, delivered)
		}
	}
}

// TestClosedStreamFreesRingOnceDrained: a closed write side keeps its
// queued bytes readable and gives the ring up with the last of them.
func TestClosedStreamFreesRingOnceDrained(t *testing.T) {
	a, b := Pipe()
	a.Write(pattern(0, 300)) //nolint:errcheck
	a.Close()
	if got := readSome(t, b, 100); !bytes.Equal(got, pattern(0, 100)) {
		t.Fatal("bytes queued before close lost")
	}
	if a.out.ring == nil {
		t.Fatal("ring freed with 200 bytes unread")
	}
	if got := readSome(t, b, 1000); !bytes.Equal(got, pattern(100, 200)) {
		t.Fatal("tail queued before close lost")
	}
	if a.out.ring != nil {
		t.Fatal("closed and drained stream kept its ring")
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after drain = %v, want EOF", err)
	}
	b.Close()
}

// TestLatencyDelaysEachWriteExactly: on a link with latency each
// write's bytes become readable at exactly that write's time plus the
// latency — not a nanosecond before, and without waiting for the writes
// queued behind it.
func TestLatencyDelaysEachWriteExactly(t *testing.T) {
	const latency = 40 * time.Millisecond
	m := clock.NewManual(epoch)
	a, b := NewLink(LinkConfig{Latency: latency, Clock: m})
	defer a.Close()
	defer b.Close()
	a.Write(bytes.Repeat([]byte{0}, 500)) //nolint:errcheck
	m.Advance(latency / 2)
	a.Write(bytes.Repeat([]byte{1}, 500)) //nolint:errcheck
	for i, at := range []time.Duration{latency, latency + latency/2} {
		m.Advance(at - time.Nanosecond - m.Now().Sub(epoch))
		if got := poll(t, b, 4096); len(got) != 0 {
			t.Fatalf("%d bytes readable 1ns before write %d's delivery time", len(got), i)
		}
		m.Advance(time.Nanosecond)
		if got := poll(t, b, 4096); !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 500)) {
			t.Fatalf("read at write %d's delivery time = %d bytes %v..., want its 500", i, len(got), got[:min(len(got), 4)])
		}
	}
}

// TestBandwidthPacesCoalescedWrites: on a capped link a write's bytes
// are readable exactly when every byte ahead of them and its own have
// been clocked out, however the reader batches: a reader that comes
// late takes every write delivered by then in one Read.
func TestBandwidthPacesCoalescedWrites(t *testing.T) {
	const size = 2500 // 20 ms a write at 1 Mbit/s
	const perWrite = size * 8 * time.Microsecond
	m := clock.NewManual(epoch)
	a, b := NewLink(LinkConfig{Bandwidth: 1e6, Clock: m})
	defer a.Close()
	defer b.Close()
	for i := 0; i < 3; i++ {
		if _, err := a.Write(bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	// At each instant, the writes whose bytes the reader sees: a
	// nanosecond before write 0 is out, none; then write 0; a nanosecond
	// before write 2 is out, write 1 alone; then write 2.
	for _, step := range []struct {
		at     time.Duration
		writes []byte
	}{
		{perWrite - time.Nanosecond, nil},
		{perWrite, []byte{0}},
		{3*perWrite - time.Nanosecond, []byte{1}},
		{3 * perWrite, []byte{2}},
	} {
		m.Advance(step.at - m.Now().Sub(epoch))
		var want []byte
		for _, w := range step.writes {
			want = append(want, bytes.Repeat([]byte{w}, size)...)
		}
		if got := poll(t, b, 4*size); !bytes.Equal(got, want) {
			t.Fatalf("at %v read %d bytes, want writes %v (%d bytes)", step.at, len(got), step.writes, len(want))
		}
	}
}

// TestDeadlineBoundsLatencyWait: a read deadline earlier than the
// delivery time ends the wait at exactly the deadline (it used to be
// noticed only after the full latency); so does one set while the Read
// is parked.
func TestDeadlineBoundsLatencyWait(t *testing.T) {
	m := clock.NewManual(epoch)
	a, b := NewLink(LinkConfig{Latency: time.Hour, Clock: m})
	defer a.Close()
	defer b.Close()
	a.Write([]byte("in flight for an hour")) //nolint:errcheck
	read := func() <-chan error {
		res := make(chan error, 1)
		go func() {
			n, err := b.Read(make([]byte, 64))
			if n != 0 {
				err = fmt.Errorf("read %d bytes before their delivery time", n)
			}
			res <- err
		}()
		return res
	}
	b.SetReadDeadline(m.Now().Add(10 * time.Millisecond)) //nolint:errcheck
	res := read()
	m.AwaitTimers(1) // parked until the deadline, the earlier of the two
	m.Advance(10*time.Millisecond - time.Nanosecond)
	select {
	case err := <-res:
		t.Fatalf("read returned %v 1ns before its deadline", err)
	default:
	}
	m.Advance(time.Nanosecond)
	if err := <-res; !isTimeout(err) {
		t.Fatalf("read at its deadline = %v, want a timeout", err)
	}

	b.SetReadDeadline(time.Time{}) //nolint:errcheck
	res = read()
	m.AwaitTimers(2)       // parked until the delivery time
	b.SetDeadline(m.Now()) //nolint:errcheck
	if err := <-res; !isTimeout(err) {
		t.Fatalf("parked read after SetDeadline(now) = %v, want a timeout", err)
	}
}

// TestResetWakesLatencyWait: a Read waiting out link latency fails with
// ErrReset when the connection is reset, not after the latency.
func TestResetWakesLatencyWait(t *testing.T) {
	a, b := NewLink(LinkConfig{Latency: time.Hour})
	a.Write([]byte("never delivered")) //nolint:errcheck
	res := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 64))
		res <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park (either order passes)
	a.Reset()
	if err := <-res; !errors.Is(err, ErrReset) {
		t.Fatalf("read across a reset = %v, want ErrReset", err)
	}
}

// TestWriteDeadlineBoundsWindowWait: a Write parked at the window fails
// with a timeout at its deadline, queues nothing, and the next Write
// goes through once the reader has made room; Reset wakes one too.
func TestWriteDeadlineBoundsWindowWait(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	if _, err := a.Write(pattern(0, defaultWindow)); err != nil {
		t.Fatal(err)
	}
	a.SetWriteDeadline(time.Now().Add(10 * time.Millisecond)) //nolint:errcheck
	if n, err := a.Write([]byte("parks")); n != 0 || !isTimeout(err) {
		t.Fatalf("write at a full window = (%d, %v), want a timeout", n, err)
	}
	a.SetWriteDeadline(time.Time{}) //nolint:errcheck
	if queued, _ := b.Stats(); queued != defaultWindow {
		t.Fatalf("timed-out write queued bytes: %d in the stream, want %d", queued, defaultWindow)
	}
	got := make([]byte, defaultWindow)
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, pattern(0, defaultWindow)) {
		t.Fatalf("drain after a timed-out write: %v", err)
	}
	if _, err := a.Write(pattern(0, defaultWindow)); err != nil {
		t.Fatalf("write after the reader made room: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte("parks"))
		res <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park (either order passes)
	a.Reset()
	if err := <-res; !errors.Is(err, ErrReset) {
		t.Fatalf("parked write across a reset = %v, want ErrReset", err)
	}
}

// Stats reports bytes written to and read from this end's inbound
// stream (delivered traffic).
func (c *Conn) Stats() (queued, delivered int64) {
	c.in.mu.Lock()
	defer c.in.mu.Unlock()
	return c.in.bytesIn, c.in.bytesOut
}
