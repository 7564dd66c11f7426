package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	b := NewBuilder(nil)
	b.AddUint8(0x12)
	b.AddUint16(0x3456)
	b.AddUint24(0x789ABC)
	b.AddUint32(0xDEF01234)
	b.AddUint64(0x56789ABCDEF01234)
	b.AddBytes([]byte{1, 2, 3})

	p := NewParser(b.Bytes())
	var v8 uint8
	var v16 uint16
	var v32 uint32
	var v64 uint64
	var v24, raw []byte
	if !p.ReadUint8(&v8) || !p.ReadUint16(&v16) || !p.ReadBytes(&v24, 3) ||
		!p.ReadUint32(&v32) || !p.ReadUint64(&v64) || !p.ReadBytes(&raw, 3) {
		t.Fatal("parse failed")
	}
	if v8 != 0x12 || v16 != 0x3456 || !bytes.Equal(v24, []byte{0x78, 0x9A, 0xBC}) || v32 != 0xDEF01234 || v64 != 0x56789ABCDEF01234 {
		t.Fatalf("got %x %x %x %x %x", v8, v16, v24, v32, v64)
	}
	if !bytes.Equal(raw, []byte{1, 2, 3}) {
		t.Fatalf("raw = %v", raw)
	}
	if !p.Empty() {
		t.Fatal("trailing bytes")
	}
}

// TestPropertyUintRoundTrip: every integer written is read back
// identically.
func TestPropertyUintRoundTrip(t *testing.T) {
	f := func(a uint8, b16 uint16, c32 uint32, d64 uint64) bool {
		b := NewBuilder(nil)
		b.AddUint8(a)
		b.AddUint16(b16)
		b.AddUint24(c32 & 0xFFFFFF)
		b.AddUint32(c32)
		b.AddUint64(d64)
		p := NewParser(b.Bytes())
		var ra uint8
		var rb uint16
		var rc24 []byte
		var rc32 uint32
		var rd uint64
		return p.ReadUint8(&ra) && p.ReadUint16(&rb) && p.ReadBytes(&rc24, 3) &&
			p.ReadUint32(&rc32) && p.ReadUint64(&rd) && p.Empty() &&
			ra == a && rb == b16 && bytes.Equal(rc24, []byte{byte(c32 >> 16), byte(c32 >> 8), byte(c32)}) &&
			rc32 == c32 && rd == d64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPrefixedRoundTrip: length-prefixed blocks of arbitrary
// content round-trip at all three prefix widths.
func TestPropertyPrefixedRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 250 {
			payload = payload[:250] // keep within the uint8 prefix
		}
		b := NewBuilder(nil)
		b.AddUint8Prefixed(func(b *Builder) { b.AddBytes(payload) })
		b.AddUint16Prefixed(func(b *Builder) { b.AddBytes(payload) })
		b.AddUint24Prefixed(func(b *Builder) { b.AddBytes(payload) })
		p := NewParser(b.Bytes())
		var r1, r2, r3 []byte
		return p.ReadUint8Prefixed(&r1) && p.ReadUint16Prefixed(&r2) && p.ReadUint24Prefixed(&r3) &&
			p.Empty() && bytes.Equal(r1, payload) && bytes.Equal(r2, payload) && bytes.Equal(r3, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTruncationNeverPanics: parsing any truncation of a valid
// message fails cleanly (no panic) and reports failure.
func TestPropertyTruncationNeverPanics(t *testing.T) {
	b := NewBuilder(nil)
	b.AddUint16Prefixed(func(b *Builder) { b.AddBytes(bytes.Repeat([]byte{7}, 100)) })
	b.AddUint32(42)
	b.AddUint24Prefixed(func(b *Builder) { b.AddBytes(bytes.Repeat([]byte{9}, 50)) })
	full := b.Bytes()

	for cut := 0; cut < len(full); cut++ {
		p := NewParser(full[:cut])
		var block []byte
		var v uint32
		ok := p.ReadUint16Prefixed(&block) && p.ReadUint32(&v) && p.ReadUint24Prefixed(&block)
		if ok {
			t.Fatalf("truncated parse at %d succeeded", cut)
		}
		if p.Empty() {
			continue // consumed exactly at a boundary; fine
		}
		if p.Err() == nil {
			t.Fatalf("cut=%d: failed parse reported no error", cut)
		}
	}
}

// TestPropertyRandomBytesNeverPanic: feeding arbitrary bytes through
// every parser method never panics.
func TestPropertyRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		p := NewParser(data)
		var b []byte
		var v8 uint8
		var v16 uint16
		var v32 uint32
		var v64 uint64
		p.ReadUint8Prefixed(&b)
		p.ReadUint16Prefixed(&b)
		p.ReadUint24Prefixed(&b)
		p.ReadUint8(&v8)
		p.ReadUint16(&v16)
		p.ReadUint32(&v32)
		p.ReadUint64(&v64)
		_ = p.Err()
	}
}

func TestNestedParser(t *testing.T) {
	b := NewBuilder(nil)
	b.AddUint16Prefixed(func(b *Builder) {
		b.AddUint8(1)
		b.AddUint8Prefixed(func(b *Builder) { b.AddBytes([]byte("inner")) })
	})
	p := NewParser(b.Bytes())
	var sub *Parser
	if !p.ReadParser(2, &sub) || !p.Empty() {
		t.Fatal("outer parse failed")
	}
	var tag uint8
	var inner []byte
	if !sub.ReadUint8(&tag) || !sub.ReadUint8Prefixed(&inner) || !sub.Empty() {
		t.Fatal("inner parse failed")
	}
	if tag != 1 || string(inner) != "inner" {
		t.Fatalf("got tag=%d inner=%q", tag, inner)
	}
}

func TestFailedParserStaysFailed(t *testing.T) {
	p := NewParser([]byte{1})
	var v32 uint32
	if p.ReadUint32(&v32) {
		t.Fatal("short read succeeded")
	}
	var v8 uint8
	if p.ReadUint8(&v8) {
		t.Fatal("read after failure succeeded")
	}
	if p.Err() != ErrTruncated {
		t.Fatal("parser not marked failed")
	}
}

func TestBuilderOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized uint8-prefixed block did not panic")
		}
	}()
	b := NewBuilder(nil)
	b.AddUint8Prefixed(func(b *Builder) { b.AddBytes(make([]byte, 300)) })
}
