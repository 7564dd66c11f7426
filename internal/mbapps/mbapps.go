// Package mbapps provides middlebox application processors for the
// mbTLS data plane: the paper's prototype HTTP header-insertion proxy
// (§5, "Prototype Implementation"), a Flywheel-style compression proxy
// (the outsourcing use case of §3, with Google's Flywheel as the
// running example), and a parental-filter (the opt-in service of §3.5).
//
// Each processor is HTTP-message aware: it reassembles complete
// requests or responses from the record-sized chunks the data plane
// delivers, transforms them, and re-emits well-formed messages, so
// Content-Length framing survives arbitrary record boundaries.
package mbapps

import (
	"bufio"
	"bytes"
	"compress/flate"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/httpx"
)

// messageBuffer reassembles the HTTP messages of one direction from
// its chunk stream. buf[start:] is the unconsumed stream: cutting a
// message advances start instead of copying what follows it, and the
// backing array is reused once drained.
type messageBuffer struct {
	buf   []byte
	start int
}

// write appends a chunk, first reclaiming the consumed prefix when it
// dominates the buffer (all of it, once drained).
func (mb *messageBuffer) write(chunk []byte) {
	if mb.start > 0 && mb.start >= len(mb.buf)-mb.start {
		n := copy(mb.buf, mb.buf[mb.start:])
		mb.buf, mb.start = mb.buf[:n], 0
	}
	mb.buf = append(mb.buf, chunk...)
}

// next cuts one complete HTTP message (header block plus Content-Length
// body, framed by httpx.ContentLength, the rule the parser applies) or
// returns nil while more bytes are needed. The message aliases the
// buffer and is valid until the next write.
func (mb *messageBuffer) next() ([]byte, error) {
	rest := mb.buf[mb.start:]
	head, body, err := httpx.ContentLength(rest)
	if err != nil || head == 0 || len(rest) < head+body {
		return nil, err
	}
	mb.start += head + body
	return rest[:head+body], nil
}

// transformProcessor applies a per-message rewrite to the configured
// direction and passes the other direction through untouched. Only
// that one direction's goroutine touches its state: the message buffer,
// the reader pair each message is parsed through, and out, which every
// call returns refilled (core.Processor's output contract lets it).
type transformProcessor struct {
	dir       core.Direction
	transform func(br *bufio.Reader, dst []byte) ([]byte, error)
	mb        messageBuffer
	src       bytes.Reader
	br        bufio.Reader
	out       []byte
}

// Process implements core.Processor.
func (p *transformProcessor) Process(dir core.Direction, chunk []byte) ([]byte, error) {
	if dir != p.dir {
		return chunk, nil
	}
	p.mb.write(chunk)
	p.out = p.out[:0]
	for {
		msg, err := p.mb.next()
		if err != nil {
			return nil, err
		}
		if msg == nil {
			return p.out, nil
		}
		p.src.Reset(msg)
		p.br.Reset(&p.src)
		if p.out, err = p.transform(&p.br, p.out); err != nil {
			return nil, err
		}
	}
}

// NewRequestTransformer builds a Processor that rewrites each complete
// client→server HTTP request.
func NewRequestTransformer(f func(*httpx.Request) error) core.Processor {
	return &transformProcessor{
		dir: core.DirClientToServer,
		transform: func(br *bufio.Reader, dst []byte) ([]byte, error) {
			req, err := httpx.ReadRequest(br)
			if err != nil {
				return nil, err
			}
			if err := f(req); err != nil {
				return nil, err
			}
			return req.AppendTo(dst), nil
		},
	}
}

// NewResponseTransformer builds a Processor that rewrites each complete
// server→client HTTP response.
func NewResponseTransformer(f func(*httpx.Response) error) core.Processor {
	return &transformProcessor{
		dir: core.DirServerToClient,
		transform: func(br *bufio.Reader, dst []byte) ([]byte, error) {
			resp, err := httpx.ReadResponse(br)
			if err != nil {
				return nil, err
			}
			if err := f(resp); err != nil {
				return nil, err
			}
			return resp.AppendTo(dst), nil
		},
	}
}

// NewHeaderInserter reproduces the paper's prototype middlebox: "a
// simple HTTP proxy that performs HTTP header insertion" (§5). Each
// request gains the given header.
func NewHeaderInserter(name, value string) core.Processor {
	return NewRequestTransformer(func(req *httpx.Request) error {
		req.Header.Set(name, value)
		return nil
	})
}

// NewCompressor builds a Flywheel-style compression proxy: response
// bodies above threshold are DEFLATE-compressed with Content-Encoding
// set, shrinking bytes on the client's access link.
func NewCompressor(threshold int) core.Processor {
	return NewResponseTransformer(func(resp *httpx.Response) error {
		if len(resp.Body) < threshold || resp.Header.Get("Content-Encoding") != "" {
			return nil
		}
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(resp.Body); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		if buf.Len() >= len(resp.Body) {
			return nil // incompressible; leave as-is
		}
		resp.Body = buf.Bytes()
		resp.Header.Set("Content-Encoding", "deflate")
		return nil
	})
}

// Decompress reverses NewCompressor's encoding (client-side helper for
// the examples and tests).
func Decompress(resp *httpx.Response) error {
	if resp.Header.Get("Content-Encoding") != "deflate" {
		return nil
	}
	fr := flate.NewReader(bytes.NewReader(resp.Body))
	body, err := io.ReadAll(fr)
	if err != nil {
		return err
	}
	resp.Body = body
	resp.Header.Set("Content-Encoding", "")
	return nil
}

// NewWordFilter builds a parental-filter middlebox: responses whose
// bodies contain a blocked word are replaced with a 403 page. This is
// the "filter" middlebox class whose ordering the paper's path
// integrity property protects (§3.2 P4, §4.2 "Bypassing 'Filter'
// Middleboxes").
func NewWordFilter(blocked ...string) core.Processor {
	return NewResponseTransformer(func(resp *httpx.Response) error {
		body := strings.ToLower(string(resp.Body))
		for _, w := range blocked {
			if strings.Contains(body, strings.ToLower(w)) {
				resp.StatusCode = 403
				resp.Reason = "Forbidden"
				resp.Body = []byte("blocked by parental filter\n")
				return nil
			}
		}
		return nil
	})
}
