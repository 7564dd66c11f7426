package experiments

import (
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/tls12"
)

// Fig6Paths are the twelve client–middlebox–server region paths of the
// paper's Figure 6, in its order.
var Fig6Paths = [][3]netsim.Region{
	{"usw", "use", "uk"},
	{"usw", "uk", "use"},
	{"au", "usw", "use"},
	{"use", "usw", "uk"},
	{"au", "use", "usw"},
	{"au", "use", "uk"},
	{"au", "usw", "uk"},
	{"au", "uk", "use"},
	{"usw", "au", "use"},
	{"au", "uk", "usw"},
	{"usw", "au", "uk"},
	{"use", "au", "uk"},
}

// Fig6Row is one path's latency comparison.
type Fig6Row struct {
	Path string
	// TLS and MbTLS split session time into handshake and transfer,
	// as the paper's stacked bars do.
	TLSHandshake   Stat
	TLSTransfer    Stat
	MbTLSHandshake Stat
	MbTLSTransfer  Stat
}

// Fig6Options tunes the run.
type Fig6Options struct {
	// Trials per path and protocol (paper: 100; default 5).
	Trials int
	// Scale compresses the region latencies (default 0.1: a 280 ms
	// RTT becomes 28 ms; the geometry, and therefore the relative
	// overhead, is unchanged).
	Scale float64
	// ObjectSize is the fetched object's size (paper: "a small
	// object"; default 1 KiB).
	ObjectSize int
}

// RunFig6 reproduces Figure 6 ("mbTLS vs TLS Latency"): the time to
// fetch a small object through one middlebox across inter-datacenter
// paths. For regular TLS the middlebox relays packets without
// terminating anything — the worst case to compare against (§5.2).
// Expected shape: mbTLS inflates the handshake by ~1% (it adds
// computation but no round trips).
func RunFig6(opts Fig6Options) ([]Fig6Row, error) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 5
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.1
	}
	objectSize := opts.ObjectSize
	if objectSize <= 0 {
		objectSize = 1024
	}

	pki, err := chain.NewPKI()
	if err != nil {
		return nil, err
	}

	var rows []Fig6Row
	for _, path := range Fig6Paths {
		row := Fig6Row{Path: fmt.Sprintf("%s-%s-%s", path[0], path[1], path[2])}
		var tlsHS, tlsTX, mbHS, mbTX []time.Duration
		for i := 0; i < trials; i++ {
			hs, tx, err := fig6Trial(pki, path, scale, objectSize, false)
			if err != nil {
				return nil, fmt.Errorf("%s TLS trial: %w", row.Path, err)
			}
			tlsHS, tlsTX = append(tlsHS, hs), append(tlsTX, tx)
			hs, tx, err = fig6Trial(pki, path, scale, objectSize, true)
			if err != nil {
				return nil, fmt.Errorf("%s mbTLS trial: %w", row.Path, err)
			}
			mbHS, mbTX = append(mbHS, hs), append(mbTX, tx)
		}
		row.TLSHandshake = newStat(tlsHS)
		row.TLSTransfer = newStat(tlsTX)
		row.MbTLSHandshake = newStat(mbHS)
		row.MbTLSTransfer = newStat(mbTX)
		rows = append(rows, row)
	}
	return rows, nil
}

// fig6Trial runs one fetch over a client–middlebox–server path. With
// useMbTLS the middlebox joins the session; otherwise the client is a
// plain TLS client and the middlebox relays transparently.
func fig6Trial(pki *chain.PKI, path [3]netsim.Region, scale float64, objectSize int,
	useMbTLS bool) (handshake, transfer time.Duration, err error) {

	// Each hop is the inter-region link its two ends sit in.
	ch, err := pki.Chain(func(hop int) (net.Conn, net.Conn, error) {
		return netsim.RegionLink(path[hop], path[hop+1], scale)
	}, core.MiddleboxConfig{Mode: core.ClientSide})
	if err != nil {
		return 0, 0, err
	}
	defer ch.Close()

	// The two protocols differ only in how each end handshakes.
	accept := func() (io.ReadWriteCloser, error) { return core.Accept(ch.Server, pki.ServerConfig()) }
	dial := func() (io.ReadWriteCloser, error) { return core.Dial(ch.Client, pki.ClientConfig()) }
	if !useMbTLS {
		accept = func() (io.ReadWriteCloser, error) {
			conn := tls12.NewServerConn(ch.Server, pki.ServerConfig().TLS)
			return conn, conn.Handshake()
		}
		dial = func() (io.ReadWriteCloser, error) {
			conn := tls12.NewClientConn(ch.Client, pki.ClientConfig().TLS)
			return conn, conn.Handshake()
		}
	}

	body := make([]byte, objectSize)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	serverErr := make(chan error, 1)
	go func() {
		srv, err := accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer srv.Close()
		serverErr <- httpx.Serve(srv, func(req *httpx.Request) *httpx.Response {
			return &httpx.Response{StatusCode: 200, Header: httpx.Header{}, Body: body}
		})
	}()

	start := time.Now()
	conn, err := dial()
	if err != nil {
		return 0, 0, err
	}
	handshake = time.Since(start)
	defer conn.Close()
	start = time.Now()
	resp, err := httpx.Do(conn, &httpx.Request{Method: "GET", Path: "/object", Host: chain.OriginName, Header: httpx.Header{}})
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != 200 || len(resp.Body) != objectSize {
		return 0, 0, fmt.Errorf("bad response: %d, %d bytes", resp.StatusCode, len(resp.Body))
	}
	return handshake, time.Since(start), nil
}

// FormatFig6 renders the rows as the paper's Figure 6 stacked bars.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: mbTLS vs TLS Latency (small-object fetch via one middlebox)\n")
	fmt.Fprintf(&b, "%-14s | %-22s %-22s | %-22s %-22s | %s\n",
		"Path (c-m-s)", "TLS handshake", "TLS transfer", "mbTLS handshake", "mbTLS transfer", "HS overhead")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 128))
	var overheads []float64
	for _, r := range rows {
		oh := 100 * (float64(r.MbTLSHandshake.Mean) - float64(r.TLSHandshake.Mean)) / float64(r.TLSHandshake.Mean)
		overheads = append(overheads, oh)
		fmt.Fprintf(&b, "%-14s | %-22s %-22s | %-22s %-22s | %+6.2f%%\n",
			r.Path, r.TLSHandshake.Ms(), r.TLSTransfer.Ms(), r.MbTLSHandshake.Ms(), r.MbTLSTransfer.Ms(), oh)
	}
	var sum float64
	for _, o := range overheads {
		sum += o
	}
	if len(overheads) > 0 {
		fmt.Fprintf(&b, "Average mbTLS handshake inflation: %+.2f%% (paper: +0.7%% avg, +1.2%% worst case)\n",
			sum/float64(len(overheads)))
	}
	return b.String()
}
