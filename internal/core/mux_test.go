package core

import (
	"bytes"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tls12"
)

func TestMuxPrimaryPassThrough(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	m := newMux(a)
	m.uncork()

	// Primary writes are raw record bytes on the wire.
	rl := tls12.NewRecordLayer(m.primary)
	if err := rl.WriteRecord(tls12.TypeHandshake, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	raw, err := tls12.ReadRawRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Type != tls12.TypeHandshake || !bytes.Equal(raw.Payload, []byte("hello")) {
		t.Fatalf("raw = %+v", raw)
	}

	// Inbound non-encapsulated records reach the primary pipe intact.
	reply := tls12.RawRecord{Type: tls12.TypeAlert, Payload: []byte{1, 0}}
	if _, err := b.Write(reply.Marshal()); err != nil {
		t.Fatal(err)
	}
	rec, err := rl.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != tls12.TypeAlert || !bytes.Equal(rec.Payload, []byte{1, 0}) {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestMuxSubchannelRouting(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	m := newMux(a)
	m.uncork()

	// Peer opens subchannels 3 and 7 with inner records.
	inner3 := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte("three")}
	inner7 := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte("seven")}
	for _, msg := range []struct {
		sub   uint8
		inner tls12.RawRecord
	}{{3, inner3}, {7, inner7}} {
		payload := append([]byte{msg.sub}, msg.inner.Marshal()...)
		enc := tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: payload}
		if _, err := b.Write(enc.Marshal()); err != nil {
			t.Fatal(err)
		}
	}

	// Both announced on newSub, in order.
	var seen []uint8
	for i := 0; i < 2; i++ {
		select {
		case sub := <-m.newSub:
			seen = append(seen, sub)
		case <-time.After(2 * time.Second):
			t.Fatalf("subchannel %d not announced", i)
		}
	}
	if seen[0] != 3 || seen[1] != 7 {
		t.Fatalf("announced %v", seen)
	}

	// Each pipe carries its own inner record stream.
	rl3 := tls12.NewRecordLayer(m.subchannel(3, false))
	rec, err := rl3.ReadRecord()
	if err != nil || string(rec.Payload) != "three" {
		t.Fatalf("sub 3: %v %q", err, rec.Payload)
	}
	rl7 := tls12.NewRecordLayer(m.subchannel(7, false))
	rec, err = rl7.ReadRecord()
	if err != nil || string(rec.Payload) != "seven" {
		t.Fatalf("sub 7: %v %q", err, rec.Payload)
	}

	// Writes into a subchannel leave as Encapsulated outer records.
	if err := rl7.WriteRecord(tls12.TypeHandshake, []byte("up")); err != nil {
		t.Fatal(err)
	}
	raw, err := tls12.ReadRawRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Type != tls12.TypeEncapsulated || raw.Payload[0] != 7 {
		t.Fatalf("outer = %+v", raw)
	}
	inner, err := tls12.ReadRawRecord(bytes.NewReader(raw.Payload[1:]))
	if err != nil || string(inner.Payload) != "up" {
		t.Fatalf("inner = %+v (%v)", inner, err)
	}
}

func TestMuxLocalSubchannelNotAnnounced(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	m := newMux(a)
	m.uncork()

	// Locally created subchannels (announce=false) never appear on
	// newSub, even when inbound data later arrives for them.
	pipe := m.subchannel(5, false)
	payload := append([]byte{5}, tls12.RawRecord{Type: tls12.TypeHandshake, Payload: []byte("x")}.Marshal()...)
	if _, err := b.Write(tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: payload}.Marshal()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(pipe, buf); err != nil {
		t.Fatal(err)
	}
	select {
	case sub := <-m.newSub:
		t.Fatalf("locally opened subchannel %d was announced", sub)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMuxFailurePropagates(t *testing.T) {
	a, b := netsim.Pipe()
	m := newMux(a)
	m.uncork()
	pipe := m.subchannel(2, false)
	b.Close()
	a.Close()
	buf := make([]byte, 1)
	if _, err := m.primary.Read(buf); err == nil {
		t.Fatal("primary pipe survived transport failure")
	}
	if _, err := pipe.Read(buf); err == nil {
		t.Fatal("subchannel pipe survived transport failure")
	}
	// newSub closes so watchers exit.
	select {
	case _, ok := <-m.newSub:
		if ok {
			t.Fatal("unexpected subchannel after failure")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("newSub not closed on failure")
	}
}

func TestMuxSubchannelIDsSorted(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	m := newMux(a)
	m.uncork()
	for _, id := range []uint8{9, 2, 5} {
		m.subchannel(id, false)
	}
	got := m.subchannelIDs()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("ids = %v", got)
	}
	_ = b
}

func TestDirectionString(t *testing.T) {
	if DirClientToServer.String() == DirServerToClient.String() {
		t.Fatal("directions stringify identically")
	}
	if ClientSide.String() == ServerSide.String() {
		t.Fatal("modes stringify identically")
	}
}

func TestNewMiddleboxValidation(t *testing.T) {
	if _, err := NewMiddlebox(MiddleboxConfig{}); err == nil {
		t.Fatal("middlebox without certificate accepted")
	}
}

// subchannelIDs returns the currently known subchannel IDs, ascending.
func (m *mux) subchannelIDs() []uint8 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint8, 0, len(m.subs))
	for id := range m.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
