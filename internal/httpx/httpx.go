// Package httpx is a minimal HTTP/1.1 implementation over arbitrary
// byte streams. The paper's prototype middlebox is "a simple HTTP proxy
// that performs HTTP header insertion" (§5); this package provides the
// request/response codec that the example applications and experiment
// workloads build on. Bodies are Content-Length delimited (the subset
// the experiments need); chunked transfer encoding is not implemented.
//
// Messages are serialized by appending to a caller's buffer
// (AppendTo) and parsed from a bufio.Reader's buffer in place; the
// strings a Request or Response keeps are its only per-message copies,
// besides the body.
package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Header is a simple case-insensitive header map (canonicalized to the
// common Title-Case form on write).
type Header map[string]string

// Get returns the header value (case-insensitive key).
func (h Header) Get(key string) string {
	for k, v := range h {
		if strings.EqualFold(k, key) {
			return v
		}
	}
	return ""
}

// Set replaces a header value, normalizing duplicate spellings.
func (h Header) Set(key, value string) {
	for k := range h {
		if strings.EqualFold(k, key) {
			delete(h, k)
		}
	}
	h[key] = value
}

// appendFields appends the header fields sorted by name (tests compare
// bytes), then the empty line that ends them. A non-empty host and a
// length >= 0 replace every spelling of Host and Content-Length, as
// Set would, without modifying h.
func (h Header) appendFields(dst []byte, host string, length int) []byte {
	var arr [16]string
	keys := arr[:0]
	for k := range h {
		if (host != "" && strings.EqualFold(k, "Host")) || (length >= 0 && strings.EqualFold(k, "Content-Length")) {
			continue
		}
		keys = append(keys, k)
	}
	if host != "" {
		keys = append(keys, "Host")
	}
	if length >= 0 {
		keys = append(keys, "Content-Length")
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, k...)
		dst = append(dst, ": "...)
		switch {
		case host != "" && k == "Host":
			dst = append(dst, host...)
		case length >= 0 && k == "Content-Length":
			dst = strconv.AppendInt(dst, int64(length), 10)
		default:
			dst = append(dst, h[k]...)
		}
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// Request is an HTTP/1.1 request.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
	Body   []byte
}

// Response is an HTTP/1.1 response.
type Response struct {
	StatusCode int
	Reason     string
	Header     Header
	Body       []byte
}

// maxLineLen bounds header lines defensively.
const maxLineLen = 64 << 10

// maxBodyLen bounds accepted bodies (64 MiB).
const maxBodyLen = 64 << 20

var errLineTooLong = errors.New("httpx: header line too long")

// readLine returns the next line without its line ending. The slice
// aliases br's buffer (or, for a line longer than that buffer, a fresh
// copy) and is valid until br's next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= maxLineLen {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	switch {
	case err != nil && err != bufio.ErrBufferFull:
		return nil, err
	case err != nil || len(line) > maxLineLen:
		return nil, errLineTooLong
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// parseField splits a header line into its name and value, both
// trimmed of surrounding white space, and folds the field into n, the
// body length the message's earlier Content-Length fields declared (-1
// while none has). It is the one field rule the parser and
// ContentLength share: a Content-Length value is 1*DIGIT, at most
// maxBodyLen, and a repeated Content-Length must declare the same
// length (RFC 9112 §6.3).
func parseField(line []byte, n int) (name, value []byte, length int, err error) {
	name, value, ok := bytes.Cut(line, []byte(":"))
	if !ok {
		return nil, nil, 0, fmt.Errorf("httpx: malformed header line %q", line)
	}
	name, value = bytes.TrimSpace(name), bytes.TrimSpace(value)
	if !bytes.EqualFold(name, []byte("Content-Length")) {
		return name, value, n, nil
	}
	for _, c := range value {
		if c < '0' || c > '9' || length > maxBodyLen {
			length = -1
			break
		}
		length = length*10 + int(c-'0')
	}
	if len(value) == 0 || length < 0 || length > maxBodyLen || (n >= 0 && n != length) {
		return nil, nil, 0, fmt.Errorf("httpx: bad Content-Length %q", value)
	}
	return name, value, length, nil
}

// ContentLength frames the HTTP message at the start of b by the rules
// ReadRequest and ReadResponse parse it with: b[:head] is the start
// line and the header fields through the empty line that ends them,
// and body is the length the Content-Length fields declare (0 without
// one). head is 0 while b holds no complete header block. A header
// line without a colon is an error, and so is a Content-Length that is
// not all digits, exceeds 64 MiB, or disagrees with an earlier one.
func ContentLength(b []byte) (head, body int, err error) {
	head = bytes.IndexByte(b, '\n') + 1 // past the start line
	if head == 0 {
		return 0, 0, nil
	}
	n := -1
	for {
		i := bytes.IndexByte(b[head:], '\n')
		if i < 0 {
			return 0, 0, nil
		}
		line := bytes.TrimRight(b[head:head+i], "\r")
		head += i + 1
		if len(line) == 0 {
			return head, max(n, 0), nil
		}
		if _, _, n, err = parseField(line, n); err != nil {
			return 0, 0, err
		}
	}
}

// readHeaders reads the header fields through the empty line that ends
// them, and the body length their Content-Length fields declare (-1:
// none).
func readHeaders(br *bufio.Reader) (Header, int, error) {
	h := make(Header)
	n := -1
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, 0, err
		}
		if len(line) == 0 {
			return h, n, nil
		}
		name, value, length, err := parseField(line, n)
		if err != nil {
			return nil, 0, err
		}
		n = length
		h.Set(string(name), string(value))
	}
}

// readBody reads an n-byte body into its own slice (nil for n < 0: the
// message declared no length). A body that fits the reader's buffer
// gets an exact-size slice; a longer one grows as its bytes arrive, so
// a declared length commits no memory the peer has not sent.
func readBody(br *bufio.Reader, n int) ([]byte, error) {
	if n < 0 {
		return nil, nil
	}
	if n <= br.Size() {
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(body) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return body, nil
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	meth, rest, ok1 := bytes.Cut(line, []byte(" "))
	path, version, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !bytes.HasPrefix(version, []byte("HTTP/1.")) {
		return nil, fmt.Errorf("httpx: malformed request line %q", line)
	}
	req := &Request{Method: string(meth), Path: string(path)}
	h, n, err := readHeaders(br)
	if err != nil {
		return nil, err
	}
	req.Header = h
	req.Host = h.Get("Host")
	if req.Body, err = readBody(br, n); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendTo appends the request's wire form to dst and returns the
// extended slice: the request line, the header fields sorted by name
// — with Host added when r.Host is set and the header has no Host
// value, and Content-Length set when there is a body or the method is
// POST or PUT — the empty line, and the body. r.Header is not
// modified.
func (r *Request) AppendTo(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Path...)
	dst = append(dst, " HTTP/1.1\r\n"...)
	host := ""
	if r.Header.Get("Host") == "" {
		host = r.Host
	}
	length := -1
	if len(r.Body) > 0 || r.Method == "POST" || r.Method == "PUT" {
		length = len(r.Body)
	}
	dst = r.Header.appendFields(dst, host, length)
	return append(dst, r.Body...)
}

// Write serializes the request in one w.Write.
func (r *Request) Write(w io.Writer) error {
	_, err := w.Write(r.AppendTo(nil))
	return err
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	version, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok || !bytes.HasPrefix(version, []byte("HTTP/1.")) {
		return nil, fmt.Errorf("httpx: malformed status line %q", line)
	}
	code, reason, _ := bytes.Cut(rest, []byte(" "))
	resp := &Response{Reason: string(reason)}
	if resp.StatusCode, err = strconv.Atoi(string(code)); err != nil {
		return nil, fmt.Errorf("httpx: malformed status code in %q", line)
	}
	h, n, err := readHeaders(br)
	if err != nil {
		return nil, err
	}
	resp.Header = h
	if resp.Body, err = readBody(br, n); err != nil {
		return nil, err
	}
	return resp, nil
}

// AppendTo appends the response's wire form to dst and returns the
// extended slice: the status line (StatusText's phrase when Reason is
// empty), the header fields sorted by name with Content-Length set to
// the body's length, the empty line, and the body. r.Header is not
// modified.
func (r *Response) AppendTo(dst []byte) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.StatusCode), 10)
	dst = append(dst, ' ')
	if r.Reason != "" {
		dst = append(dst, r.Reason...)
	} else {
		dst = append(dst, StatusText(r.StatusCode)...)
	}
	dst = append(dst, "\r\n"...)
	dst = r.Header.appendFields(dst, "", len(r.Body))
	return append(dst, r.Body...)
}

// StatusText returns a reason phrase for common status codes.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	}
	return "Status"
}

// Handler produces a response for a request.
type Handler func(*Request) *Response

// Serve reads requests from rw and writes handler responses until EOF
// or error (a tiny keep-alive HTTP/1.1 server loop for one connection).
// Each response is one rw.Write from a buffer the loop reuses.
func Serve(rw io.ReadWriter, handler Handler) error {
	br := bufio.NewReader(rw)
	var out []byte
	for {
		req, err := ReadRequest(br)
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		resp := handler(req)
		if resp == nil {
			resp = &Response{StatusCode: 500}
		}
		out = resp.AppendTo(out[:0])
		if _, err := rw.Write(out); err != nil {
			return err
		}
	}
}

// Do writes a request and reads the response over rw (one exchange on a
// persistent connection).
func Do(rw io.ReadWriter, req *Request) (*Response, error) {
	if err := req.Write(rw); err != nil {
		return nil, err
	}
	return ReadResponse(bufio.NewReader(rw))
}

// Client performs repeated requests on one connection, reusing its
// reader and its write buffer across them.
type Client struct {
	rw  io.ReadWriter
	br  *bufio.Reader
	out []byte
}

// NewClient wraps a connection for repeated requests.
func NewClient(rw io.ReadWriter) *Client {
	return &Client{rw: rw, br: bufio.NewReader(rw)}
}

// Do performs one request/response exchange.
func (c *Client) Do(req *Request) (*Response, error) {
	c.out = req.AppendTo(c.out[:0])
	if _, err := c.rw.Write(c.out); err != nil {
		return nil, err
	}
	return ReadResponse(c.br)
}
