// Package wire provides low-level helpers for building and parsing the
// length-prefixed binary structures used throughout TLS and mbTLS.
//
// It is a deliberately small subset of the golang.org/x/crypto/cryptobyte
// API, reimplemented on the standard library only. A Builder appends
// big-endian integers and length-prefixed byte strings to a buffer; a
// Parser consumes them. Parsers never panic on malformed input: every
// Read* method reports failure via its boolean result, and once a read
// fails the Parser stays failed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Builder incrementally constructs a binary message. The zero value is
// ready to use.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder that appends to buf. Pass nil to start
// with an empty buffer.
func NewBuilder(buf []byte) *Builder {
	return &Builder{buf: buf}
}

// Bytes returns the bytes written so far. The returned slice aliases the
// Builder's internal buffer and is invalidated by further writes.
func (b *Builder) Bytes() []byte { return b.buf }

// AddUint8 appends a single byte.
func (b *Builder) AddUint8(v uint8) { b.buf = append(b.buf, v) }

// AddUint16 appends a big-endian 16-bit integer.
func (b *Builder) AddUint16(v uint16) {
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
}

// AddUint24 appends a big-endian 24-bit integer. Values that do not fit
// in 24 bits are truncated to their low 24 bits; callers validate sizes
// before building.
func (b *Builder) AddUint24(v uint32) {
	b.buf = append(b.buf, byte(v>>16), byte(v>>8), byte(v))
}

// AddUint32 appends a big-endian 32-bit integer.
func (b *Builder) AddUint32(v uint32) {
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
}

// AddUint64 appends a big-endian 64-bit integer.
func (b *Builder) AddUint64(v uint64) {
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
}

// AddBytes appends raw bytes with no length prefix.
func (b *Builder) AddBytes(p []byte) { b.buf = append(b.buf, p...) }

// AddUint8Prefixed appends a block built by f, preceded by its length as
// an 8-bit integer.
func (b *Builder) AddUint8Prefixed(f func(*Builder)) { b.addPrefixed(1, f) }

// AddUint16Prefixed appends a block built by f, preceded by its length as
// a big-endian 16-bit integer.
func (b *Builder) AddUint16Prefixed(f func(*Builder)) { b.addPrefixed(2, f) }

// AddUint24Prefixed appends a block built by f, preceded by its length as
// a big-endian 24-bit integer.
func (b *Builder) AddUint24Prefixed(f func(*Builder)) { b.addPrefixed(3, f) }

func (b *Builder) addPrefixed(prefixLen int, f func(*Builder)) {
	start := len(b.buf)
	for i := 0; i < prefixLen; i++ {
		b.buf = append(b.buf, 0)
	}
	f(b)
	length := len(b.buf) - start - prefixLen
	if length < 0 || length >= 1<<(8*prefixLen) {
		// Structures this large are a programming error; fail loudly
		// rather than emit a corrupt frame.
		panic(fmt.Sprintf("wire: block length %d overflows %d-byte prefix", length, prefixLen))
	}
	for i := 0; i < prefixLen; i++ {
		b.buf[start+i] = byte(length >> (8 * (prefixLen - 1 - i)))
	}
}

// ErrTruncated is returned by Parser.Err when input ended before a
// complete structure was read.
var ErrTruncated = errors.New("wire: truncated input")

// Parser consumes a binary message produced by a Builder (or a peer's
// implementation of the same formats).
type Parser struct {
	buf    []byte
	failed bool
}

// NewParser returns a Parser reading from buf. The Parser does not copy
// buf; callers must not mutate it while parsing.
func NewParser(buf []byte) *Parser {
	return &Parser{buf: buf}
}

// Empty reports whether all input has been consumed (and no read has
// failed).
func (p *Parser) Empty() bool { return !p.failed && len(p.buf) == 0 }

// Len returns the number of unread bytes.
func (p *Parser) Len() int { return len(p.buf) }

// Err returns ErrTruncated if any read has failed, or an error if
// trailing garbage remains; otherwise nil.
func (p *Parser) Err() error {
	if p.failed {
		return ErrTruncated
	}
	if len(p.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(p.buf))
	}
	return nil
}

func (p *Parser) take(n int) ([]byte, bool) {
	if p.failed || len(p.buf) < n || n < 0 {
		p.failed = true
		return nil, false
	}
	v := p.buf[:n]
	p.buf = p.buf[n:]
	return v, true
}

// ReadUint8 reads a single byte.
func (p *Parser) ReadUint8(v *uint8) bool {
	b, ok := p.take(1)
	if !ok {
		return false
	}
	*v = b[0]
	return true
}

// ReadUint16 reads a big-endian 16-bit integer.
func (p *Parser) ReadUint16(v *uint16) bool {
	b, ok := p.take(2)
	if !ok {
		return false
	}
	*v = binary.BigEndian.Uint16(b)
	return true
}

// ReadUint32 reads a big-endian 32-bit integer.
func (p *Parser) ReadUint32(v *uint32) bool {
	b, ok := p.take(4)
	if !ok {
		return false
	}
	*v = binary.BigEndian.Uint32(b)
	return true
}

// ReadUint64 reads a big-endian 64-bit integer.
func (p *Parser) ReadUint64(v *uint64) bool {
	b, ok := p.take(8)
	if !ok {
		return false
	}
	*v = binary.BigEndian.Uint64(b)
	return true
}

// ReadBytes reads exactly n raw bytes. The result aliases the input.
func (p *Parser) ReadBytes(v *[]byte, n int) bool {
	b, ok := p.take(n)
	if !ok {
		return false
	}
	*v = b
	return true
}

// CopyBytes reads exactly len(dst) bytes into dst.
func (p *Parser) CopyBytes(dst []byte) bool {
	b, ok := p.take(len(dst))
	if !ok {
		return false
	}
	copy(dst, b)
	return true
}

// ReadUint8Prefixed reads an 8-bit length followed by that many bytes.
func (p *Parser) ReadUint8Prefixed(v *[]byte) bool { return p.readPrefixed(1, v) }

// ReadUint16Prefixed reads a big-endian 16-bit length followed by that
// many bytes.
func (p *Parser) ReadUint16Prefixed(v *[]byte) bool { return p.readPrefixed(2, v) }

// ReadUint24Prefixed reads a big-endian 24-bit length followed by that
// many bytes.
func (p *Parser) ReadUint24Prefixed(v *[]byte) bool { return p.readPrefixed(3, v) }

func (p *Parser) readPrefixed(prefixLen int, v *[]byte) bool {
	b, ok := p.take(prefixLen)
	if !ok {
		return false
	}
	var n int
	for _, c := range b {
		n = n<<8 | int(c)
	}
	b, ok = p.take(n)
	if !ok {
		return false
	}
	*v = b
	return true
}

// ReadParser reads a length-prefixed block and returns a sub-Parser over
// it, so nested structures can be parsed without slicing arithmetic.
func (p *Parser) ReadParser(prefixLen int, sub **Parser) bool {
	var b []byte
	if !p.readPrefixed(prefixLen, &b) {
		return false
	}
	*sub = NewParser(b)
	return true
}
