package core

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/tls12"
)

// sniffResult is what the hello sniff decided, and what it handed on.
type sniffResult struct {
	decision string // "join", "transparent", "not-tls" or "client gone"
	raw      []byte // the bytes the sniff read and hands on first
	helloRaw []byte
	maxSub   int
	rest     []byte // what the relay reads after raw
}

// sniff runs the hello-sniff phase over reads, one per Read call.
func sniff(t testing.TB, reads [][]byte) sniffResult {
	t.Helper()
	down := newScriptConn(reads, false)
	s := (&Middlebox{}).newSession(down, newScriptConn(nil, false), nil)
	raw, _, helloRaw, maxSub, err := s.collectClientHello(make([]byte, 0, tls12.MaxRecordWireSize))
	res := sniffResult{decision: "not-tls", raw: raw, helloRaw: helloRaw, maxSub: maxSub}
	switch {
	case err != nil:
		res.decision = "client gone"
	case helloRaw != nil:
		res.decision = "transparent"
		if hello, _ := tls12.ParseClientHello(helloRaw); hello != nil && hello.MiddleboxSupport != nil {
			res.decision = "join"
		}
	}
	if res.rest, err = io.ReadAll(s.downR); err != nil {
		t.Fatalf("reading past the sniff: %v", err)
	}
	return res
}

// firstClientFlight is what an mbTLS client sends before it hears from
// anyone: the ClientHello of the golden transcript's chain.
func firstClientFlight(f *testing.F) []byte {
	conn := newScriptConn(nil, false) // the client's hello meets EOF
	cfg := &ClientConfig{TLS: &tls12.Config{ServerName: "origin.example", InsecureSkipVerify: true}}
	if _, err := Dial(conn, cfg); err == nil {
		f.Fatal("Dial succeeded against EOF")
	}
	if len(conn.wrote) == 0 {
		f.Fatal("the client sent no hello")
	}
	return conn.wrote
}

// FuzzHelloSniff feeds attacker bytes, split across reads at
// fuzzer-chosen points, to a middlebox's hello sniff — the first code
// that parses an unauthenticated peer's bytes. It must not panic; the
// bytes it read (raw) and what the relay reads after them must be the
// input, in order; and the decision, the hello and the highest
// announced subchannel must not depend on how the input was split.
func FuzzHelloSniff(f *testing.F) {
	flight := firstClientFlight(f)
	if got := sniff(f, [][]byte{flight}).decision; got != "join" {
		f.Fatalf("the client's first flight sniffs as %q", got)
	}
	ann := tls12.RawRecord{Type: tls12.TypeMiddleboxAnnouncement}.Marshal()
	announced := append(tls12.RawRecord{Type: tls12.TypeEncapsulated, Payload: append([]byte{3}, ann...)}.Marshal(), flight...)
	// A "ClientHello" announcing a 16 MiB body (TestMiddleboxSplicesOversizedHello).
	oversized := tls12.RawRecord{Type: tls12.TypeHandshake, Payload: append([]byte{1, 0xFF, 0xFF, 0xFF}, bytes.Repeat([]byte{0xEE}, 300)...)}.Marshal()
	for _, in := range [][]byte{flight, announced, oversized, append(bytes.Clone(flight), "early data"...), []byte("GET / HTTP/1.1\r\n\r\n")} {
		f.Add(in, []byte(nil))
		f.Add(in, []byte{0})
		f.Add(in, []byte{4, 0, 1, 200, 7})
	}
	f.Fuzz(func(t *testing.T, in, cuts []byte) {
		// Each cut is one read's length less one, cycled; none is one read.
		var reads [][]byte
		for rest, i := in, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			reads, rest = append(reads, rest[:n]), rest[n:]
		}
		whole := sniff(t, [][]byte{bytes.Clone(in)})
		split := sniff(t, reads)
		for _, r := range []sniffResult{whole, split} {
			if !bytes.Equal(append(bytes.Clone(r.raw), r.rest...), in) {
				t.Fatalf("%s: raw (%d bytes) and the relay's rest (%d) are not the input (%d)", r.decision, len(r.raw), len(r.rest), len(in))
			}
		}
		if whole.decision != split.decision || !bytes.Equal(whole.helloRaw, split.helloRaw) || whole.maxSub != split.maxSub {
			t.Fatalf("split into %d reads: %s (hello %d bytes, maxSub %d); whole: %s (hello %d bytes, maxSub %d)",
				len(reads), split.decision, len(split.helloRaw), split.maxSub, whole.decision, len(whole.helloRaw), whole.maxSub)
		}
	})
}
