package tls12

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"io"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
)

// handshakeParser is one messages.go parser under FuzzHandshakeMessages:
// parse returns a re-marshaler of what it accepted (nil when it
// rejected), in the same framing as its input.
type handshakeParser struct {
	name string
	// exact: an accepted input re-marshals to exactly the bytes parsed.
	// The others skip what they do not understand, so for them
	// re-marshal-then-re-parse is a fixed point instead (see the fuzzer).
	exact bool
	parse func([]byte) (func() []byte, error)
}

func msgParser[T any](name string, exact bool, parse func([]byte) (*T, error), marshal func(*T) []byte) handshakeParser {
	return handshakeParser{name, exact, func(in []byte) (func() []byte, error) {
		m, err := parse(in)
		if m == nil {
			return nil, err
		}
		return func() []byte { return marshal(m) }, err
	}}
}

// handshakeParsers is indexed by the fuzzer's selector byte. Every
// parser but ParseClientHello takes a message body (or, for
// parseMiddleboxSupport, the extension data), so its marshal output
// loses the 4-byte handshake header.
var handshakeParsers = []handshakeParser{
	msgParser("ParseClientHello", false, ParseClientHello, (*ClientHello).marshal),
	msgParser("parseMiddleboxSupport", false, parseMiddleboxSupport, (*MiddleboxSupport).marshal),
	msgParser("parseServerHello", false, parseServerHello, func(m *ServerHello) []byte { return m.marshal()[4:] }),
	msgParser("parseCertificateMsg", true, parseCertificateMsg, func(m *certificateMsg) []byte { return m.marshal()[4:] }),
	msgParser("parseServerKeyExchange", true, parseServerKeyExchange, func(m *serverKeyExchange) []byte { return m.marshal()[4:] }),
	msgParser("parseClientKeyExchange", true, parseClientKeyExchange, func(m *clientKeyExchange) []byte { return m.marshal()[4:] }),
	msgParser("parseFinished", true, parseFinished, func(m *finishedMsg) []byte { return m.marshal()[4:] }),
	msgParser("parseNewSessionTicket", true, parseNewSessionTicket, func(m *newSessionTicketMsg) []byte { return m.marshal()[4:] }),
	msgParser("parseSGXAttestation", true, parseSGXAttestation, func(m *sgxAttestationMsg) []byte { return m.marshal()[4:] }),
}

// tapConn records what crosses a conn in each direction. One goroutine
// drives it: the client's, which runs its handshake and Close itself.
type tapConn struct {
	net.Conn
	sent, recvd []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recvd = append(c.recvd, p[:n]...)
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.sent = append(c.sent, p...)
	return c.Conn.Write(p)
}

// plaintextMessages returns the handshake messages of a recorded
// stream, header included, up to its ChangeCipherSpec.
func plaintextMessages(tb testing.TB, stream []byte) [][]byte {
	var hs, msgs [][]byte
	r := bytes.NewReader(stream)
	for {
		rec, err := ReadRawRecord(r)
		if err == io.EOF || rec.Type == TypeChangeCipherSpec {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		if rec.Type == TypeHandshake {
			hs = append(hs, rec.Payload)
		}
	}
	for buf := bytes.Join(hs, nil); len(buf) > 0; {
		msg, err := SplitHandshakeMsg(buf)
		if err != nil || msg == nil {
			tb.Fatalf("recorded handshake does not split: %v", err)
		}
		msgs, buf = append(msgs, msg), buf[len(msg):]
	}
	return msgs
}

// recordHandshakes runs a full handshake — attested, with a
// MiddleboxSupport hello — and a ticket resumption of it between this
// package's client and server, and returns every plaintext handshake
// message either side sent.
func recordHandshakes(tb testing.TB) [][]byte {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x42}, ed25519.SeedSize))
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "fuzz.example"},
		DNSNames:     []string{"fuzz.example"},
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Unix(1<<33, 0),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, priv.Public(), priv)
	if err != nil {
		tb.Fatal(err)
	}
	server := &Config{
		Certificate:   &Certificate{Chain: [][]byte{der}, PrivateKey: priv},
		EnableTickets: true,
		TicketKeys:    FixedTicketKeys{0x42},
		Quoter:        func(reportData []byte) ([]byte, error) { return append([]byte("quote:"), reportData...), nil },
	}
	var ticket *SessionTicket
	client := &Config{
		ServerName:         "fuzz.example",
		InsecureSkipVerify: true,
		EnableTickets:      true,
		OnNewTicket:        func(st *SessionTicket) { ticket = st },
		RequestAttestation: true,
		VerifyQuote:        func(quote, reportData []byte) error { return nil },
		MiddleboxSupport: &MiddleboxSupport{
			OptimisticHellos: [][]byte{[]byte("optimistic hello")},
			Middleboxes:      []string{"mb.example:443"},
			ProxySig:         true,
			HopTickets:       []HopTicket{{Name: "mb.example", Ticket: []byte("hop ticket")}},
		},
	}
	var msgs [][]byte
	for _, resume := range []bool{false, true} {
		if resume {
			client.SessionTicket, client.MiddleboxSupport, client.RequestAttestation = ticket, nil, false
		}
		cp, sp := netsim.Pipe()
		tap := &tapConn{Conn: cp}
		c, s := NewClientConn(tap, client), NewServerConn(sp, server)
		errs := make(chan error, 1)
		go func() { errs <- s.Handshake() }()
		if err := c.Handshake(); err != nil {
			tb.Fatal(err)
		}
		if err := <-errs; err != nil {
			tb.Fatal(err)
		}
		if c.ConnectionState().Resumed != resume {
			tb.Fatalf("resumed = %v, want %v", !resume, resume)
		}
		c.Close()
		s.Close()
		msgs = append(msgs, plaintextMessages(tb, tap.sent)...)
		msgs = append(msgs, plaintextMessages(tb, tap.recvd)...)
	}
	return msgs
}

// FuzzHandshakeMessages fuzzes the nine messages.go parsers — every
// byte they read comes from the peer before anything is authenticated —
// through one target whose selector byte picks the parser. Properties:
// never panic and never write to the input; a rejected input returns an
// error and no value; an accepted one keeps no alias of the input (the
// value re-marshals the same after the input is overwritten) and
// re-marshals to exactly the bytes parsed — except for the three
// parsers that deliberately skip what they do not understand, where
// re-marshal then re-parse is a fixed point instead: ParseClientHello
// and parseServerHello ignore unknown extensions (RFC 5246 §7.4.1.4)
// and accept known ones in any order, and the hello also any
// compression list and extra server_name entries; parseMiddleboxSupport
// takes the flags octet and the hop tickets as optional trailers
// (Appendix A originals have neither), drops unknown flag bits and
// ignores bytes after the tickets, so a later extension of the format
// stays parseable. Seeds are the messages of a recorded full and
// resumed handshake (Finished, sent encrypted, is built instead) plus
// truncations and length-field edits; they run under plain `go test`.
func FuzzHandshakeMessages(f *testing.F) {
	const (
		selClientHello = iota
		selMiddleboxSupport
		selServerHello
		selCertificate
		selServerKeyExchange
		selClientKeyExchange
		selFinished
		selNewSessionTicket
		selSGXAttestation
	)
	// lenAt is the offset, in each parser's input, of the (last byte of
	// the) first length field — the one the edits below nudge.
	lenAt := [...]int{
		selClientHello:       4 + 2 + randomLen, // session_id
		selMiddleboxSupport:  0,                 // hello count
		selServerHello:       2 + randomLen,     // session_id
		selCertificate:       2,                 // certificate_list
		selServerKeyExchange: 3,                 // public key
		selClientKeyExchange: 0,                 // public key
		selFinished:          -1,                // none: verify_data is fixed-size
		selNewSessionTicket:  5,                 // ticket
		selSGXAttestation:    1,                 // quote
	}
	seed := func(sel int, in []byte) {
		f.Add(byte(sel), in)
		f.Add(byte(sel), in[:len(in)-1])
		f.Add(byte(sel), in[:len(in)/2])
		f.Add(byte(sel), append(bytes.Clone(in), 0))
		if at := lenAt[sel]; at >= 0 && at < len(in) {
			for _, d := range []byte{1, 0xFF} {
				edited := bytes.Clone(in)
				edited[at] += d
				f.Add(byte(sel), edited)
			}
		}
	}
	seed(selFinished, (&finishedMsg{verifyData: bytes.Repeat([]byte{0xF1}, finishedVerifyLen)}).marshal()[4:])
	for _, msg := range recordHandshakes(f) {
		body := msg[4:]
		switch HandshakeType(msg[0]) {
		case TypeClientHello:
			seed(selClientHello, msg)
			if ch, err := ParseClientHello(msg); err == nil && ch.MiddleboxSupport != nil {
				seed(selMiddleboxSupport, ch.MiddleboxSupport.marshal())
			}
		case TypeServerHello:
			seed(selServerHello, body)
		case TypeCertificate:
			seed(selCertificate, body)
		case TypeServerKeyExchange:
			seed(selServerKeyExchange, body)
		case TypeClientKeyExchange:
			seed(selClientKeyExchange, body)
		case TypeNewSessionTicket:
			seed(selNewSessionTicket, body)
		case TypeSGXAttestation:
			seed(selSGXAttestation, body)
		}
	}

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		p := handshakeParsers[int(sel)%len(handshakeParsers)]
		in := bytes.Clone(data)
		remarshal, err := p.parse(in)
		if !bytes.Equal(in, data) {
			t.Fatalf("%s wrote to its input", p.name)
		}
		switch {
		case err != nil && remarshal != nil:
			t.Fatalf("%s rejected the input (%v) and still returned a value", p.name, err)
		case err != nil:
			return
		case remarshal == nil:
			t.Fatalf("%s accepted the input and returned no value", p.name)
		}
		out := remarshal()
		if p.exact && !bytes.Equal(out, data) {
			t.Fatalf("%s: accepted input re-marshals to %d bytes %x, parsed from %d bytes %x", p.name, len(out), out, len(data), data)
		}
		if !p.exact {
			again, err := p.parse(bytes.Clone(out))
			if err != nil {
				t.Fatalf("%s rejects its own re-marshal %x: %v", p.name, out, err)
			}
			if fixed := again(); !bytes.Equal(fixed, out) {
				t.Fatalf("%s: re-marshal is not a fixed point: %x then %x", p.name, out, fixed)
			}
		}
		for i := range in {
			in[i] ^= 0xFF
		}
		if !bytes.Equal(remarshal(), out) {
			t.Fatalf("%s keeps an alias of its input", p.name)
		}
	})
}
