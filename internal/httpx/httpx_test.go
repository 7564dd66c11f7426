package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Path:   "/submit?x=1",
		Host:   "origin.example",
		Header: Header{"X-Custom": "value", "Via": "1.1 proxy"},
		Body:   []byte("form data here"),
	}
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "POST" || got.Path != "/submit?x=1" || got.Host != "origin.example" {
		t.Fatalf("request line corrupted: %+v", got)
	}
	if got.Header.Get("x-custom") != "value" {
		t.Fatal("case-insensitive header lookup failed")
	}
	if !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		StatusCode: 302,
		Header:     Header{"Location": "https://elsewhere.example/"},
		Body:       []byte("moved"),
	}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(resp.AppendTo(nil))))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 302 || got.Reason != "Found" {
		t.Fatalf("status = %d %q", got.StatusCode, got.Reason)
	}
	if got.Header.Get("location") != "https://elsewhere.example/" {
		t.Fatal("Location header lost")
	}
	if string(got.Body) != "moved" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestEmptyBody(t *testing.T) {
	resp := &Response{StatusCode: 404, Header: Header{}}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(resp.AppendTo(nil))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestHeaderSetReplacesCaseVariants(t *testing.T) {
	h := Header{"content-length": "5"}
	h.Set("Content-Length", "10")
	if len(h) != 1 || h.Get("CONTENT-LENGTH") != "10" {
		t.Fatalf("header = %v", h)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []string{
		"NOT A REQUEST LINE\r\n\r\n",
		"GET /\r\n\r\n",                       // missing version
		"GET / HTTP/1.1\r\nBadHeader\r\n\r\n", // malformed header
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("malformed request parsed: %q", c)
		}
	}
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 abc OK\r\n\r\n"))); err == nil {
		t.Error("malformed status code parsed")
	}
}

func TestServeAndClientKeepAlive(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	go Serve(b, func(req *Request) *Response { //nolint:errcheck
		return &Response{StatusCode: 200, Header: Header{}, Body: []byte("echo:" + req.Path)}
	})
	client := NewClient(a)
	for _, path := range []string{"/one", "/two", "/three"} {
		resp, err := client.Do(&Request{Method: "GET", Path: path, Host: "h", Header: Header{}})
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "echo:"+path {
			t.Fatalf("got %q", resp.Body)
		}
	}
}

func TestServeNilResponse(t *testing.T) {
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	go Serve(b, func(*Request) *Response { return nil }) //nolint:errcheck
	resp, err := Do(a, &Request{Method: "GET", Path: "/", Header: Header{}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Fatalf("nil handler response → %d, want 500", resp.StatusCode)
	}
}

func TestLargeBody(t *testing.T) {
	body := bytes.Repeat([]byte("abcdefgh"), 1<<16) // 512 KiB
	resp := &Response{StatusCode: 200, Header: Header{}, Body: body}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(resp.AppendTo(nil))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatal("large body corrupted")
	}
}

// TestDeclaredLengthCommitsNoMemory: a Content-Length is the peer's
// claim, not bytes it has sent. A message declaring the largest body
// the parser accepts and then ending must fail as truncated without
// the parser having allocated anywhere near that length.
func TestDeclaredLengthCommitsNoMemory(t *testing.T) {
	tail := "Content-Length: " + strconv.Itoa(maxBodyLen) + "\r\n\r\npartial body"
	for _, tc := range []struct {
		name, head string
		read       func(*bufio.Reader) error
	}{
		{"request", "POST /upload HTTP/1.1\r\nHost: origin.example\r\n", func(br *bufio.Reader) error {
			_, err := ReadRequest(br)
			return err
		}},
		{"response", "HTTP/1.1 200 OK\r\n", func(br *bufio.Reader) error {
			_, err := ReadResponse(br)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := tc.head + tail
			br := bufio.NewReader(strings.NewReader(msg))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read(br)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want a truncated body", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("parsing a %d-byte message allocated %d bytes", len(msg), got)
			}
		})
	}
}

// TestWriteBytes pins AppendTo's output byte for byte, as the codec wrote
// it when it went through a bufio.Writer and fmt: the request line,
// Host inserted only when the header has none, every spelling of
// Content-Length replaced, sorted fields, and the reason phrase
// falling back to StatusText.
func TestWriteBytes(t *testing.T) {
	cases := []struct {
		name string
		msg  interface{ AppendTo([]byte) []byte }
		want string
	}{
		{"nil header, Host inserted", &Request{Method: "GET", Path: "/obj/7", Host: "origin.example"},
			"GET /obj/7 HTTP/1.1\r\nHost: origin.example\r\n\r\n"},
		{"Host inserted among sorted fields", &Request{Method: "GET", Path: "/a", Host: "origin.example", Header: Header{"Via": "1.1 p", "Accept": "*/*"}},
			"GET /a HTTP/1.1\r\nAccept: */*\r\nHost: origin.example\r\nVia: 1.1 p\r\n\r\n"},
		{"header's own host kept", &Request{Method: "GET", Path: "/b", Host: "ignored.example", Header: Header{"host": "kept.example"}},
			"GET /b HTTP/1.1\r\nhost: kept.example\r\n\r\n"},
		{"other-cased Content-Length replaced", &Request{Method: "PUT", Path: "/c", Header: Header{"content-length": "99", "X-A": "1"}, Body: []byte("abc")},
			"PUT /c HTTP/1.1\r\nContent-Length: 3\r\nX-A: 1\r\n\r\nabc"},
		{"POST with an empty body", &Request{Method: "POST", Path: "/d", Host: "h", Header: Header{}},
			"POST /d HTTP/1.1\r\nContent-Length: 0\r\nHost: h\r\n\r\n"},
		{"response, nil header", &Response{StatusCode: 200, Body: []byte("ok")},
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"},
		{"response Content-Length replaced", &Response{StatusCode: 404, Header: Header{"Content-LENGTH": "7"}},
			"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"},
		{"response sorted fields", &Response{StatusCode: 302, Header: Header{"Location": "https://x/"}, Body: []byte("moved")},
			"HTTP/1.1 302 Found\r\nContent-Length: 5\r\nLocation: https://x/\r\n\r\nmoved"},
		{"custom reason", &Response{StatusCode: 299, Reason: "Custom Reason", Header: Header{"B": "2", "A": "1"}},
			"HTTP/1.1 299 Custom Reason\r\nA: 1\r\nB: 2\r\nContent-Length: 0\r\n\r\n"},
		{"empty reason, unknown code", &Response{StatusCode: 418},
			"HTTP/1.1 418 Status\r\nContent-Length: 0\r\n\r\n"},
	}
	for _, c := range cases {
		if got := string(c.msg.AppendTo(nil)); got != c.want {
			t.Errorf("%s: AppendTo = %q, want %q", c.name, got, c.want)
		}
	}
}

// countingConn counts the Write calls that reach a connection.
type countingConn struct {
	io.ReadWriter
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.ReadWriter.Write(p)
}

// TestOneWritePerMessage: a message is one Write on its connection, a
// body larger than a bufio.Writer's 4 KiB included — from Write, from
// Client.Do, and from Serve.
func TestOneWritePerMessage(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 10<<10)
	var w countingConn
	w.ReadWriter = new(bytes.Buffer)
	req := &Request{Method: "POST", Path: "/", Host: "h", Body: big}
	if err := req.Write(&w); err != nil || w.writes != 1 {
		t.Fatalf("Request.Write made %d writes (%v), want 1", w.writes, err)
	}

	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	server := &countingConn{ReadWriter: b}
	go Serve(server, func(req *Request) *Response { //nolint:errcheck
		return &Response{StatusCode: 200, Body: big}
	})
	clientConn := &countingConn{ReadWriter: a}
	client := NewClient(clientConn)
	for i := 1; i <= 3; i++ {
		resp, err := client.Do(&Request{Method: "POST", Path: "/", Host: "h", Body: big})
		if err != nil || !bytes.Equal(resp.Body, big) {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if clientConn.writes != i || server.writes != i {
			t.Fatalf("after %d exchanges: client wrote %d times, server %d", i, clientConn.writes, server.writes)
		}
	}
}

// TestLongHeaderLines: a header line longer than the reader's buffer
// is read whole up to the 64 KiB line bound, and one past it fails
// with errLineTooLong.
func TestLongHeaderLines(t *testing.T) {
	for _, n := range []int{4 << 10, 5000, 32 << 10, maxLineLen - len("X: \r\n")} {
		value := strings.Repeat("v", n)
		in := "GET / HTTP/1.1\r\nX: " + value + "\r\nHost: h\r\n\r\n"
		req, err := ReadRequest(bufio.NewReader(strings.NewReader(in)))
		if err != nil || req.Header.Get("X") != value || req.Host != "h" {
			t.Fatalf("%d-byte header value: %v", n, err)
		}
	}
	for _, n := range []int{maxLineLen - len("X: \r\n") + 1, 100 << 10} {
		in := "GET / HTTP/1.1\r\nX: " + strings.Repeat("v", n) + "\r\n\r\n"
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); !errors.Is(err, errLineTooLong) {
			t.Fatalf("%d-byte header value: err = %v, want %v", n, err, errLineTooLong)
		}
	}
}

// TestExchangeAllocs pins one Client.Do/Serve exchange over a
// netsim.Pipe, both ends counted: what is left is the two parsed
// messages, the response the handler builds, and the pipe's own
// delivery; neither end allocates a write buffer per message.
func TestExchangeAllocs(t *testing.T) {
	const bound = 18
	a, b := netsim.Pipe()
	defer a.Close()
	defer b.Close()
	body := bytes.Repeat([]byte{0x5A}, 1024)
	go Serve(b, func(req *Request) *Response { //nolint:errcheck
		return &Response{StatusCode: 200, Header: Header{"X-Via-Seen": req.Header.Get("Via")}, Body: body}
	})
	client := NewClient(a)
	req := &Request{Method: "GET", Path: "/obj/12345", Host: "origin.example"}
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := client.Do(req)
		if err != nil || len(resp.Body) != len(body) {
			t.Fatalf("exchange: %v", err)
		}
	})
	t.Logf("%.1f allocations an exchange", allocs)
	if allocs > bound {
		t.Fatalf("one exchange allocates %.1f times, want <= %d", allocs, bound)
	}
}
