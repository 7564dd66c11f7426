package mbapps

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/httpx"
)

// feedChunks drives a processor with the message split at the given
// chunk size, concatenating outputs — simulating arbitrary record
// boundaries on the data plane.
func feedChunks(t *testing.T, p core.Processor, dir core.Direction, msg []byte, chunkSize int) []byte {
	t.Helper()
	var out []byte
	for off := 0; off < len(msg); off += chunkSize {
		end := off + chunkSize
		if end > len(msg) {
			end = len(msg)
		}
		o, err := p.Process(dir, msg[off:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	return out
}

func marshalRequest(t *testing.T, req *httpx.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshalResponse(t *testing.T, resp *httpx.Response) []byte {
	t.Helper()
	return resp.AppendTo(nil)
}

func TestHeaderInserterAcrossChunkBoundaries(t *testing.T) {
	msg := marshalRequest(t, &httpx.Request{
		Method: "GET", Path: "/page", Host: "origin.example",
		Header: httpx.Header{}, Body: []byte("req-body"),
	})
	// Every chunking, down to byte-at-a-time, must produce the same
	// rewritten request.
	for _, chunk := range []int{1, 2, 3, 7, 16, len(msg)} {
		p := NewHeaderInserter("Via", "1.1 mbtls-proxy")
		out := feedChunks(t, p, core.DirClientToServer, msg, chunk)
		req, err := httpx.ReadRequest(bufio.NewReader(bytes.NewReader(out)))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if req.Header.Get("Via") != "1.1 mbtls-proxy" {
			t.Fatalf("chunk=%d: Via header missing", chunk)
		}
		if string(req.Body) != "req-body" {
			t.Fatalf("chunk=%d: body corrupted: %q", chunk, req.Body)
		}
	}
}

func TestHeaderInserterPassesResponses(t *testing.T) {
	p := NewHeaderInserter("Via", "x")
	resp := marshalResponse(t, &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("ok")})
	out := feedChunks(t, p, core.DirServerToClient, resp, 4)
	if !bytes.Equal(out, resp) {
		t.Fatal("response direction modified by a request transformer")
	}
}

func TestHeaderInserterPipelinedRequests(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = append(stream, marshalRequest(t, &httpx.Request{
			Method: "GET", Path: "/r", Host: "h", Header: httpx.Header{},
		})...)
	}
	p := NewHeaderInserter("Via", "v")
	out := feedChunks(t, p, core.DirClientToServer, stream, 11)
	br := bufio.NewReader(bytes.NewReader(out))
	for i := 0; i < 3; i++ {
		req, err := httpx.ReadRequest(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Header.Get("Via") != "v" {
			t.Fatalf("request %d missing Via", i)
		}
	}
}

func TestCompressorRoundTrip(t *testing.T) {
	page := strings.Repeat("compressible content. ", 200)
	resp := marshalResponse(t, &httpx.Response{
		StatusCode: 200, Header: httpx.Header{}, Body: []byte(page),
	})
	p := NewCompressor(64)
	out := feedChunks(t, p, core.DirServerToClient, resp, 333)
	if len(out) >= len(resp) {
		t.Fatalf("compressor did not shrink: %d → %d bytes", len(resp), len(out))
	}
	got, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Get("Content-Encoding") != "deflate" {
		t.Fatal("Content-Encoding not set")
	}
	if err := Decompress(got); err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != page {
		t.Fatal("decompressed body mismatch")
	}
}

func TestCompressorSkipsSmallAndIncompressible(t *testing.T) {
	p := NewCompressor(1024)
	small := marshalResponse(t, &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("tiny")})
	out := feedChunks(t, p, core.DirServerToClient, small, 16)
	got, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Get("Content-Encoding") != "" {
		t.Fatal("small body was compressed")
	}
	if string(got.Body) != "tiny" {
		t.Fatal("small body corrupted")
	}
}

func TestWordFilterBlocks(t *testing.T) {
	p := NewWordFilter("forbidden")
	bad := marshalResponse(t, &httpx.Response{
		StatusCode: 200, Header: httpx.Header{}, Body: []byte("this page contains FORBIDDEN words"),
	})
	out := feedChunks(t, p, core.DirServerToClient, bad, 9)
	got, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 403 {
		t.Fatalf("status = %d, want 403", got.StatusCode)
	}

	good := marshalResponse(t, &httpx.Response{
		StatusCode: 200, Header: httpx.Header{}, Body: []byte("perfectly wholesome content"),
	})
	out = feedChunks(t, p, core.DirServerToClient, good, 9)
	got, err = httpx.ReadResponse(bufio.NewReader(bytes.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 {
		t.Fatalf("clean page blocked: %d", got.StatusCode)
	}
}

func TestTransformerHoldsIncompleteMessage(t *testing.T) {
	// A partial request must produce no output until completed.
	msg := marshalRequest(t, &httpx.Request{Method: "GET", Path: "/x", Host: "h", Header: httpx.Header{}})
	p := NewHeaderInserter("Via", "v")
	half := len(msg) / 2
	out, err := p.Process(core.DirClientToServer, msg[:half])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("incomplete message emitted %d bytes", len(out))
	}
	out, err = p.Process(core.DirClientToServer, msg[half:])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("completed message produced no output")
	}
}

// rrRequest is an rr_http-shaped request: the benchmark client's GET,
// as httpx.Client writes it.
func rrRequest() []byte {
	return (&httpx.Request{Method: "GET", Path: "/obj/12345", Host: "origin.example"}).AppendTo(nil)
}

// TestHeaderInserterAllocs pins the proxy's per-message cost on an
// rr_http-shaped request. What is left is the parsed request itself
// (the Request, its method and path, its header map and the Host
// field's strings); the framer, the reader pair and the output buffer are the
// processor's own and are reused.
func TestHeaderInserterAllocs(t *testing.T) {
	const bound = 7 // 25 before the processor kept its scratch
	msg := rrRequest()
	p := NewHeaderInserter("Via", "1.1 mbtls-benchmark")
	allocs := testing.AllocsPerRun(100, func() {
		out, err := p.Process(core.DirClientToServer, msg)
		if err != nil || len(out) <= len(msg) {
			t.Fatalf("Process = %d bytes, %v", len(out), err)
		}
	})
	t.Logf("%.1f allocations a message", allocs)
	if allocs > bound {
		t.Fatalf("HeaderInserter.Process allocates %.1f times a message, want <= %d", allocs, bound)
	}
}

// TestFramerAgreesWithParser: the middlebox's framer and an endpoint's
// parser apply one Content-Length rule (httpx.ContentLength), so on
// every row they both accept, cutting and consuming the same length,
// or both reject. Before they shared it, the framer took the first
// Content-Length and read it with Sscanf, the parser the last with
// Atoi: the first row was cut after its headers by the framer and
// given a 5-byte body by the parser.
func TestFramerAgreesWithParser(t *testing.T) {
	const body = "helloworld"
	rows := []struct {
		fields string
		body   int // body length both accept; -1: both reject
	}{
		{"Content-Length: 0\r\nContent-length: 5\r\n", -1},
		{"Content-Length: 5\r\n", 5},
		{"Content-Length: 5\r\nContent-Length: 5\r\n", 5},
		{"Content-Length: 5\r\nCONTENT-LENGTH: 005\r\n", 5},
		{"content-length :  3  \r\n", 3},
		{"X-Other: 7\r\n", 0},
		{"Content-Length: 5, 5\r\n", -1},
		{"Content-Length: +5\r\n", -1},
		{"Content-Length: 5abc\r\n", -1},
		{"Content-Length: -1\r\n", -1},
		{"Content-Length:\r\n", -1},
		{"Content-Length: 67108865\r\n", -1},
		{"Content-Length: 99999999999999999999999\r\n", -1},
		{"Content-Length 5\r\n", -1},
	}
	for _, row := range rows {
		head := "POST /p HTTP/1.1\r\nHost: h\r\n" + row.fields + "\r\n"
		raw := []byte(head + body)
		want := len(head) + row.body
		mb := messageBuffer{buf: append([]byte(nil), raw...)}
		cut, cutErr := mb.next()
		br := bufio.NewReader(bytes.NewReader(raw))
		_, parseErr := httpx.ReadRequest(br)
		consumed := len(raw) - br.Buffered()
		switch {
		case row.body < 0 && (cutErr == nil || parseErr == nil):
			t.Errorf("%q: framer %v, parser %v; want both to reject", row.fields, cutErr, parseErr)
		case row.body >= 0 && (cutErr != nil || parseErr != nil):
			t.Errorf("%q: framer %v, parser %v; want both to accept", row.fields, cutErr, parseErr)
		case row.body >= 0 && (len(cut) != want || consumed != want):
			t.Errorf("%q: framer cut %d bytes, parser consumed %d; want %d", row.fields, len(cut), consumed, want)
		}
	}
}

// TestTransformerDirectionsConcurrently drives both directions of one
// processor at once, as the relay's two goroutines do; under -race it
// checks that the scratch a transformer keeps is its own direction's.
func TestTransformerDirectionsConcurrently(t *testing.T) {
	req := rrRequest()
	resp := marshalResponse(t, &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: []byte("ok")})
	for _, p := range []core.Processor{NewHeaderInserter("Via", "v"), NewCompressor(1)} {
		var wg sync.WaitGroup
		for _, dir := range []core.Direction{core.DirClientToServer, core.DirServerToClient} {
			msg := req
			if dir == core.DirServerToClient {
				msg = resp
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					out, err := p.Process(dir, msg)
					if err != nil || len(out) == 0 {
						t.Errorf("%v: Process = %d bytes, %v", dir, len(out), err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
