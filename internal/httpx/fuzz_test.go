package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// message is what both parsers return.
type message interface {
	AppendTo(dst []byte) []byte
}

// parsed is one parse of a fuzz input: the message re-serialized, and
// how many input bytes the parser consumed.
type parsed struct {
	out      []byte
	consumed int
}

// parseWith parses in through a reader of the given buffer size. After
// the parse it refills the reader's buffer with other bytes and checks
// that the value did not change: a value that aliased the input or
// the buffer it was parsed from would.
func parseWith[M message](t *testing.T, read func(*bufio.Reader) (M, error), in []byte, size int) (parsed, error) {
	src := bytes.NewReader(in)
	br := bufio.NewReaderSize(src, size)
	m, err := read(br)
	if err != nil {
		return parsed{}, err
	}
	p := parsed{out: m.AppendTo(nil), consumed: len(in) - br.Buffered() - src.Len()}
	br.Reset(bytes.NewReader(bytes.Repeat([]byte{0xA5}, br.Size())))
	if _, err := br.Peek(br.Size()); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] ^= 0xFF
	}
	if !bytes.Equal(m.AppendTo(nil), p.out) {
		t.Fatalf("the parsed value aliases its input or the reader's buffer (reader size %d)", size)
	}
	for i := range in {
		in[i] ^= 0xFF
	}
	return p, nil
}

// fuzzParser checks the properties FuzzReadRequest and FuzzReadResponse
// share. The parser never panics and never writes to its input, and its
// verdict does not depend on the reader's buffer size (16 bytes, so
// every line takes the long-line path, or bufio's default). An accepted
// message keeps no alias of the input or the reader's buffer, and
// re-serialized with AppendTo it parses back to the same bytes — a
// fixed point after one round, since the parser drops what AppendTo
// normalizes (the HTTP minor version, the case of a replaced
// Content-Length, a missing reason phrase). The middlebox's framer,
// ContentLength, cuts exactly the bytes the parser consumed.
func fuzzParser[M message](t *testing.T, read func(*bufio.Reader) (M, error), data []byte) {
	in := bytes.Clone(data)
	small, errSmall := parseWith(t, read, in, 16)
	whole, err := parseWith(t, read, in, 4096)
	if !bytes.Equal(in, data) {
		t.Fatal("the parser wrote to its input")
	}
	if (err == nil) != (errSmall == nil) || !bytes.Equal(small.out, whole.out) || small.consumed != whole.consumed {
		t.Fatalf("reader size changes the parse: %q (%v) at 16 bytes, %q (%v) at 4096", small.out, errSmall, whole.out, err)
	}
	if err != nil {
		return
	}
	head, body, err := ContentLength(data)
	if err != nil || head == 0 || head+body != whole.consumed {
		t.Fatalf("the framer cuts head %d + body %d (%v), the parser consumed %d", head, body, err, whole.consumed)
	}
	again, err := parseWith(t, read, bytes.Clone(whole.out), 4096)
	if errors.Is(err, errLineTooLong) {
		return // "k:v" re-serializes as "k: v\r\n": a line at the bound grows past it
	}
	if err != nil || again.consumed != len(whole.out) {
		t.Fatalf("the re-serialized %q does not parse back (%v; consumed %d of %d)", whole.out, err, again.consumed, len(whole.out))
	}
	if !bytes.Equal(again.out, whole.out) {
		t.Fatalf("re-serializing is not a fixed point: %q then %q", whole.out, again.out)
	}
}

// fieldSeeds are the header blocks of TestFramerAgreesWithParser's rows
// in mbapps, and a line longer than a default bufio buffer.
var fieldSeeds = []string{
	"Content-Length: 0\r\nContent-length: 5\r\n",
	"Content-Length: 5\r\nContent-Length: 5\r\n",
	"Content-Length: 5\r\nCONTENT-LENGTH: 005\r\n",
	"content-length :  3  \r\n",
	"Content-Length: 5, 5\r\n",
	"Content-Length: +5\r\n",
	"Content-Length: 5abc\r\n",
	"Content-Length:\r\n",
	"Content-Length: 99999999999999999999999\r\n",
	"Content-Length 5\r\n",
	"X-Long: " + strings.Repeat("v", 5000) + "\r\n",
}

func FuzzReadRequest(f *testing.F) {
	rr := (&Request{Method: "GET", Path: "/obj/12345", Host: "origin.example"}).AppendTo(nil)
	via := (&Request{Method: "GET", Path: "/obj/12345", Host: "origin.example", Header: Header{"Via": "1.1 mbtls-benchmark"}}).AppendTo(nil)
	post := (&Request{Method: "POST", Path: "/submit?x=1", Host: "origin.example", Header: Header{"X-Custom": "value"}, Body: []byte("form data here")}).AppendTo(nil)
	for _, s := range [][]byte{rr, via, post, append(bytes.Clone(rr), rr...), rr[:len(rr)/2]} {
		f.Add(s)
	}
	for _, s := range []string{
		"NOT A REQUEST LINE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
		"GET / HTTP/1.0\nHost: lf.example\nContent-Length: 2\n\nhi",
		// Every trailing CR is trimmed, by the parser and the framer alike.
		"GET / HTTP/1.1\r\nContent-Length: 2\r\r\n\r\r\nhi",
	} {
		f.Add([]byte(s))
	}
	for _, fields := range fieldSeeds {
		f.Add([]byte("POST /p HTTP/1.1\r\nHost: h\r\n" + fields + "\r\nhelloworld"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParser(t, ReadRequest, data)
	})
}

func FuzzReadResponse(f *testing.F) {
	rr := (&Response{StatusCode: 200, Header: Header{"X-Via-Seen": "1.1 mbtls-benchmark"}, Body: bytes.Repeat([]byte{0x5A}, 1024)}).AppendTo(nil)
	moved := (&Response{StatusCode: 302, Header: Header{"Location": "https://elsewhere.example/"}, Body: []byte("moved")}).AppendTo(nil)
	for _, s := range [][]byte{rr, moved, rr[:len(rr)/2], append(bytes.Clone(moved), moved...)} {
		f.Add(s)
	}
	for _, s := range []string{
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 404\r\n\r\n",
		"HTTP/1.0 200 OK\nContent-Length: 2\n\nhi",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\r\n\r\r\nhi",
	} {
		f.Add([]byte(s))
	}
	for _, fields := range fieldSeeds {
		f.Add([]byte("HTTP/1.1 200 OK\r\n" + fields + "\r\nhelloworld"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParser(t, ReadResponse, data)
	})
}
