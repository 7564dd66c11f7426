package netsim

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello through the pipe")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

// TestPropertyPipePreservesBytes: any sequence of writes is read back
// exactly, regardless of chunking.
func TestPropertyPipePreservesBytes(t *testing.T) {
	f := func(chunks [][]byte) bool {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		var want []byte
		total := 0
		for _, c := range chunks {
			if total+len(c) > defaultWindow/2 {
				break // stay under the flow-control window for a single-threaded check
			}
			total += len(c)
			want = append(want, c...)
			if _, err := a.Write(c); err != nil {
				return false
			}
		}
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := io.ReadFull(b, got); err != nil {
				return false
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeEOFAfterClose(t *testing.T) {
	a, b := Pipe()
	a.Write([]byte("tail")) //nolint:errcheck
	a.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("buffered data lost at close: %v", err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("read after close = %v, want EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

// TestLinkLatency: a write is unreadable one nanosecond before the link
// latency has passed and readable at exactly that instant, and a Read
// parked on the latency returns then and not before.
func TestLinkLatency(t *testing.T) {
	const latency = 30 * time.Millisecond
	m := clock.NewManual(epoch)
	a, b := NewLink(LinkConfig{Latency: latency, Clock: m})
	defer a.Close()
	defer b.Close()
	a.Write([]byte("x")) //nolint:errcheck
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	m.AwaitTimers(1) // the Read is parked until the delivery time
	m.Advance(latency - time.Nanosecond)
	select {
	case p := <-got:
		t.Fatalf("read returned %q 1ns before the latency passed", p)
	default:
	}
	m.Advance(time.Nanosecond)
	if p := <-got; string(p) != "x" {
		t.Fatalf("read at the delivery time = %q, want \"x\"", p)
	}
}

// TestLinkBandwidth: at 1 Mbit/s a 25 KiB write is clocked out in
// exactly 204.8 ms (8 µs a byte); none of it is readable a nanosecond
// earlier.
func TestLinkBandwidth(t *testing.T) {
	m := clock.NewManual(epoch)
	a, b := NewLink(LinkConfig{Bandwidth: 1e6, Clock: m})
	defer a.Close()
	defer b.Close()
	payload := pattern(0, 25<<10)
	if _, err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	const due = 25 << 10 * 8 * time.Microsecond
	m.Advance(due - time.Nanosecond)
	if got := poll(t, b, len(payload)); len(got) != 0 {
		t.Fatalf("%d bytes readable before the write was clocked out", len(got))
	}
	m.Advance(time.Nanosecond)
	if got := poll(t, b, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes at the delivery time, want all %d", len(got), len(payload))
	}
}

func TestReadDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond)) //nolint:errcheck
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	if err == nil {
		t.Fatal("read with expired deadline succeeded")
	}
	nerr, ok := err.(interface{ Timeout() bool })
	if !ok || !nerr.Timeout() {
		t.Fatalf("error %v is not a timeout", err)
	}
}

func TestFlowControlBackpressure(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	chunk := make([]byte, 64<<10)
	wrote := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 64; i++ { // 4 MiB total, 4× the window
			if _, err := a.Write(chunk); err != nil {
				break
			}
			n++
		}
		wrote <- n
	}()
	// Give the writer time to fill the window and block.
	time.Sleep(50 * time.Millisecond)
	select {
	case n := <-wrote:
		t.Fatalf("writer completed %d chunks without a reader (no backpressure)", n)
	default:
	}
	// Drain; the writer must finish.
	go io.Copy(io.Discard, b) //nolint:errcheck
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never unblocked")
	}
}

func TestRegionRTTSymmetricAndComplete(t *testing.T) {
	for _, a := range Regions {
		for _, b := range Regions {
			ab, err := RegionRTT(a, b)
			if err != nil {
				t.Fatalf("RTT(%s,%s): %v", a, b, err)
			}
			ba, err := RegionRTT(b, a)
			if err != nil {
				t.Fatal(err)
			}
			if ab != ba {
				t.Fatalf("RTT(%s,%s)=%v but RTT(%s,%s)=%v", a, b, ab, b, a, ba)
			}
		}
	}
}

func TestFramingValidatorPassesMbTLSTypes(t *testing.T) {
	v := FramingValidator{}
	for _, typ := range []uint8{20, 21, 22, 23, 30, 31, 32} {
		if !v.CheckRecord(typ, 0x0303, make([]byte, 100)) {
			t.Fatalf("framing validator dropped type %d", typ)
		}
	}
	if v.CheckRecord(22, 0x1234, nil) {
		t.Fatal("implausible version passed")
	}
	if v.CheckRecord(22, 0x0303, make([]byte, 30000)) {
		t.Fatal("oversized record passed")
	}
}

func TestStrictDPIDropsMbTLSTypes(t *testing.T) {
	d := StrictDPI{}
	for _, typ := range []uint8{20, 21, 22, 23} {
		if !d.CheckRecord(typ, 0x0303, nil) {
			t.Fatalf("strict DPI dropped standard type %d", typ)
		}
	}
	for _, typ := range []uint8{30, 31, 32} {
		if d.CheckRecord(typ, 0x0303, nil) {
			t.Fatalf("strict DPI passed mbTLS type %d", typ)
		}
	}
}

// TestFilteredLinkPreservesTLSStream: a TLS-framed byte stream survives
// every Table 2 filter stack byte-for-byte.
func TestFilteredLinkPreservesTLSStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Build a plausible record stream including mbTLS types.
	var stream []byte
	for i := 0; i < 40; i++ {
		typ := []uint8{20, 21, 22, 23, 30, 32}[rng.Intn(6)]
		n := rng.Intn(2000)
		payload := make([]byte, n)
		rng.Read(payload)
		stream = append(stream, typ, 0x03, 0x03, byte(n>>8), byte(n))
		stream = append(stream, payload...)
	}

	for _, entry := range Table2Sites {
		specs := SiteFilters(entry.Type, 3)
		client, server := FilteredLink(specs...)
		go func() {
			client.Write(stream) //nolint:errcheck
		}()
		got := make([]byte, len(stream))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatalf("%s: %v", entry.Type, err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("%s: stream corrupted by filter stack %v", entry.Type, specs)
		}
		client.Close()
		server.Close()
	}
}

func TestFilteredLinkStrictDPIKills(t *testing.T) {
	client, server := FilteredLink(FilterSpec{Kind: KindStrictDPI})
	defer client.Close()
	defer server.Close()
	// An Encapsulated record must not survive.
	rec := append([]byte{30, 0x03, 0x03, 0x00, 0x03}, 1, 2, 3)
	client.Write(rec) //nolint:errcheck
	buf := make([]byte, 1)
	server.SetReadDeadline(time.Now().Add(500 * time.Millisecond)) //nolint:errcheck
	if _, err := server.Read(buf); err == nil {
		t.Fatal("strict DPI forwarded an mbTLS record")
	}
}

func TestConcurrentPipeUse(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	const writers = 4
	const per = 100
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Write([]byte{0xAB}) //nolint:errcheck
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		for got < writers*per {
			n, err := b.Read(buf)
			if err != nil {
				break
			}
			got += n
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("read %d of %d bytes", got, writers*per)
	}
}
