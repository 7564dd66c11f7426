package core

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tls12"
)

// countingConn counts the transport writes a mux makes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// corkedMux is a corked mux over one end of a netsim pipe; the test
// reads what it sends from the other end.
func corkedMux(t *testing.T) (*mux, *countingConn, net.Conn) {
	t.Helper()
	a, b := netsim.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	c := &countingConn{Conn: a}
	return newMux(c), c, b
}

func handshakeRecord(body string) []byte {
	return tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte(body)}.Marshal()
}

// awaitStarved spins until a reader of m waits on the peer.
func awaitStarved(m *mux) {
	for !(m.idle.Load() && m.anyStarved()) {
		runtime.Gosched()
	}
}

// TestCorkReleasesWhenAReaderWaits pins the cork's progress rule
// (DESIGN.md §12 "Writers"): flights wait in the cork only while no
// reader of the mux waits on the peer. A flight written first leaves
// in one write with the next when a reader starts to wait; a flight
// written while a reader already waits leaves at once.
func TestCorkReleasesWhenAReaderWaits(t *testing.T) {
	m, c, peer := corkedMux(t)
	sub := m.subchannel(1, false)
	if _, err := m.primary.Write(handshakeRecord("primary")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Write(handshakeRecord("secondary")); err != nil {
		t.Fatal(err)
	}
	if n := c.writes.Load(); n != 0 {
		t.Fatalf("%d transport writes while nobody waits, want 0", n)
	}

	// A reader waits on the peer: both flights leave, in one write.
	read := make(chan error, 1)
	go func() {
		_, err := m.primary.Read(make([]byte, 1))
		read <- err
	}()
	want := append(handshakeRecord("primary"), appendEncapsulated(nil, 1, handshakeRecord("secondary"))...)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || c.writes.Load() != 1 {
		t.Fatalf("peer got %x in %d writes, want %x in one", got, c.writes.Load(), want)
	}

	// With the reader still waiting, a new flight is not held.
	awaitStarved(m)
	if _, err := sub.Write(handshakeRecord("finished")); err != nil {
		t.Fatal(err)
	}
	if n := c.writes.Load(); n != 2 {
		t.Fatalf("%d transport writes, want 2: a flight written while a reader waits leaves at once", n)
	}
	want = appendEncapsulated(nil, 1, handshakeRecord("finished"))
	got = make([]byte, len(want))
	if _, err := io.ReadFull(peer, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("peer got %x (%v), want %x", got, err, want)
	}
	if _, err := peer.Write(handshakeRecord("reply")); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// readSignal tells a test each time the mux's readLoop goes to the
// transport for bytes.
type readSignal struct {
	*countingConn
	reads chan struct{}
}

func (r readSignal) Read(p []byte) (int, error) {
	select {
	case r.reads <- struct{}{}:
	default:
	}
	return r.countingConn.Read(p)
}

// TestCorkStarveRecheckedUnderLock pins that a reader about to wait
// releases the cork only if it still waits on the peer once it holds
// the write lock: readLoop may have fed it meanwhile, and a flight
// corked since then must stay to join the next one. Without the second
// look a resumed client once sent its secondary Finished alone, a write
// more than TestFlightWrites allows.
func TestCorkStarveRecheckedUnderLock(t *testing.T) {
	a, peer := netsim.Pipe()
	t.Cleanup(func() { a.Close(); peer.Close() })
	c := &countingConn{Conn: a}
	rs := readSignal{c, make(chan struct{}, 1)}
	m := newMux(rs)
	// readLoop reads the transport only after its own look at the
	// readers, so it does not wait for the write lock the test holds.
	<-rs.reads
	m.wmu.Lock()
	read := make(chan error, 1)
	go func() {
		_, err := m.primary.Read(make([]byte, 1))
		read <- err
	}()
	// The reader found its pipe empty while readLoop was idle: it goes
	// for the write lock to release the cork.
	for !m.primary.starved() {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	// Meanwhile readLoop feeds it, and another goroutine corks a flight.
	if _, err := peer.Write(handshakeRecord("reply")); err != nil {
		t.Fatal(err)
	}
	for {
		m.primary.mu.Lock()
		fed := m.primary.start < len(m.primary.buf)
		m.primary.mu.Unlock()
		if fed {
			break
		}
		runtime.Gosched()
	}
	m.cork = append(m.cork, handshakeRecord("flight")...)
	m.wmu.Unlock()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if n := c.writes.Load(); n != 0 {
		t.Fatalf("%d transport writes, want 0: the reader was fed before it held the lock", n)
	}
}

// TestCorkFlushRules pins the cork's other releases: an alert leaves at
// once with what was held before it, and so does a flight the record
// layer pushes (the early part of a full server flight); the cork never
// grows past one record; uncork sends what is held and ends the cork;
// dropCork sends nothing and wipes what it held; a peer's hang-up sends
// what is held, so readers hear the error its write met, and so does
// uncork; a failed mux holds nothing back.
func TestCorkFlushRules(t *testing.T) {
	t.Run("alert", func(t *testing.T) {
		m, c, _ := corkedMux(t)
		m.primary.Write(handshakeRecord("flight")) //nolint:errcheck
		alert := tls12.RawRecord{Type: tls12.TypeAlert, Payload: []byte{2, 40}}.Marshal()
		m.subchannel(1, false).Write(alert) //nolint:errcheck
		if n := c.writes.Load(); n != 1 {
			t.Fatalf("%d writes after an alert, want 1", n)
		}
	})
	t.Run("push", func(t *testing.T) {
		m, c, _ := corkedMux(t)
		rl := tls12.NewRecordLayer(m.primary)
		defer rl.Release()
		rl.WriteRecord(tls12.TypeHandshake, []byte("earlier flight"))      //nolint:errcheck
		rl.BufferRecord(tls12.TypeHandshake, []byte("hello, certificate")) //nolint:errcheck
		if err := rl.Push(); err != nil {
			t.Fatal(err)
		}
		if n := c.writes.Load(); n != 1 {
			t.Fatalf("%d writes after a Push, want 1: what the cork held and the pushed flight", n)
		}
	})
	t.Run("one record", func(t *testing.T) {
		m, c, _ := corkedMux(t)
		big := handshakeRecord(string(make([]byte, tls12.MaxRecordWireSize/2)))
		m.primary.Write(big) //nolint:errcheck
		m.primary.Write(big) //nolint:errcheck
		if n := c.writes.Load(); n != 1 {
			t.Fatalf("%d writes after two half-record flights, want 1: the first leaves before the cork outgrows a record", n)
		}
		if len(m.cork) != len(big) {
			t.Fatalf("cork holds %d bytes, want the second flight's %d", len(m.cork), len(big))
		}
	})
	t.Run("uncork", func(t *testing.T) {
		m, c, _ := corkedMux(t)
		m.primary.Write(handshakeRecord("key material")) //nolint:errcheck
		if err := m.uncork(); err != nil {
			t.Fatal(err)
		}
		m.primary.Write(handshakeRecord("data")) //nolint:errcheck
		if n := c.writes.Load(); n != 2 {
			t.Fatalf("%d writes, want 2: uncork sends the cork, later writes go straight out", n)
		}
	})
	t.Run("drop", func(t *testing.T) {
		m, c, _ := corkedMux(t)
		m.primary.Write(handshakeRecord("key material")) //nolint:errcheck
		held := m.cork[:len(m.cork)]
		m.dropCork()
		if n := c.writes.Load(); n != 0 {
			t.Fatalf("%d writes, want 0: a failed establish sends nothing it corked", n)
		}
		if !bytes.Equal(held, make([]byte, len(held))) {
			t.Fatal("dropCork left the corked bytes in memory")
		}
	})
	t.Run("hang-up", func(t *testing.T) {
		m, c, peer := corkedMux(t)
		m.primary.Write(handshakeRecord("key material")) //nolint:errcheck // corked: nobody waits
		peer.Close()
		for !m.dead.Load() {
			runtime.Gosched()
		}
		if _, err := m.primary.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("Read = %v, want the error the corked write met", err)
		}
		if c.writes.Load() != 1 {
			t.Fatalf("%d writes, want 1: the cork left when the peer hung up", c.writes.Load())
		}
		if err := m.uncork(); err == nil {
			t.Fatal("uncork reported nothing after the corked bytes were lost")
		}
	})
	t.Run("dead mux", func(t *testing.T) {
		m, c, peer := corkedMux(t)
		peer.Close()
		m.primary.Read(make([]byte, 1)) //nolint:errcheck // returns once the mux has failed
		if _, err := m.primary.Write(handshakeRecord("late")); err == nil {
			t.Fatal("a write to a failed mux succeeded into the cork")
		}
		if c.writes.Load() != 1 {
			t.Fatalf("%d writes, want 1: the write met the transport", c.writes.Load())
		}
	})
}

// TestCorkConcurrentWriters races writers on several subchannels
// against readers waiting on the peer: every byte written reaches the
// peer, each subchannel's in order, and no reader waits forever behind
// a held flight.
func TestCorkConcurrentWriters(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		m, _, peer := corkedMux(t)
		const subs, flights = 4, 50
		var wg sync.WaitGroup
		for s := uint8(1); s <= subs; s++ {
			p := m.subchannel(s, false)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < flights; i++ {
					if _, err := p.Write(handshakeRecord("flight")); err != nil {
						t.Error(err)
						return
					}
					// Wait for the peer's echo, as a handshake waits for
					// the reply flight.
					if _, err := io.ReadFull(p, make([]byte, 1)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		// The peer echoes one byte on each subchannel per flight it
		// receives.
		rr := newRecordReader(peer)
		for i := 0; i < subs*flights; i++ {
			rec, _, err := rr.next()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := peer.Write(appendEncapsulated(nil, rec.Payload[0], []byte{1})); err != nil {
				t.Fatal(err)
			}
		}
		rr.release()
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}
