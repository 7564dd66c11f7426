// Package splittls implements the "split TLS" baseline: today's
// standard practice of TLS interception with custom root certificates
// (paper §2.2). The middlebox impersonates the server to the client by
// forging a leaf certificate under a root the administrator installed
// on clients, terminates the client's TLS session, and opens a second,
// independent TLS session to the server.
//
// The paper's criticisms are reproducible here by construction: the
// client cannot authenticate the real server (it sees the forged
// certificate), it cannot tell whether the middlebox verified the
// server at all (VerifyUpstream toggles the frequently-misconfigured
// behavior observed by Durumeric et al.), session keys live in ordinary
// process memory visible to the infrastructure provider, and the
// middlebox pays for two full TLS handshakes — the cost measured
// against mbTLS in Figure 5.
package splittls

import (
	"errors"
	"io"
	"net"
	"sync"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/timing"
	"repro/internal/tls12"
)

// Interceptor is a split-TLS middlebox.
type Interceptor struct {
	// CA is the custom root whose certificate clients were provisioned
	// to trust; leaves are forged under it per intercepted server name.
	CA *certs.CA
	// Upstream configures the middlebox's client-role session to the
	// real server (trust roots, cipher suites).
	Upstream *tls12.Config
	// VerifyUpstream controls whether the middlebox verifies the real
	// server's certificate — the trust the paper notes is "often
	// misplaced" in deployed interception products.
	VerifyUpstream bool
	// NewProcessor optionally transforms relayed plaintext per session.
	NewProcessor func() core.Processor
	// Stopwatch, when set, accumulates handshake compute time across
	// both of the interceptor's TLS sessions (Figure 5's split-TLS
	// middlebox bar).
	Stopwatch *timing.Stopwatch

	forgeMu sync.Mutex
	forged  map[string]*tls12.Certificate
}

// forgeCert returns a (cached) forged leaf for the server name.
func (ic *Interceptor) forgeCert(serverName string) (*tls12.Certificate, error) {
	if serverName == "" {
		serverName = "unknown.invalid"
	}
	ic.forgeMu.Lock()
	defer ic.forgeMu.Unlock()
	if ic.forged == nil {
		ic.forged = make(map[string]*tls12.Certificate)
	}
	if cert, ok := ic.forged[serverName]; ok {
		return cert, nil
	}
	cert, err := ic.CA.Forge(serverName)
	if err != nil {
		return nil, err
	}
	ic.forged[serverName] = cert
	return cert, nil
}

// collectClientHello reads records until a full ClientHello arrives.
func collectClientHello(conn net.Conn) (raw []byte, err error) {
	var hsBuf []byte
	for {
		rec, err := tls12.ReadRawRecord(conn)
		if err != nil {
			return nil, err
		}
		if rec.Type != tls12.TypeHandshake {
			return nil, errors.New("splittls: connection does not start with a TLS handshake")
		}
		hsBuf = append(hsBuf, rec.Payload...)
		if len(hsBuf) >= 4 {
			n := int(hsBuf[1])<<16 | int(hsBuf[2])<<8 | int(hsBuf[3])
			if len(hsBuf) >= 4+n {
				return hsBuf[:4+n], nil
			}
		}
	}
}

// Handle intercepts one connection: down faces the client, up the
// server. It blocks until the session ends.
func (ic *Interceptor) Handle(down, up net.Conn) error {
	defer down.Close()
	defer up.Close()

	helloRaw, err := collectClientHello(down)
	if err != nil {
		return err
	}
	hello, err := tls12.ParseClientHello(helloRaw)
	if err != nil {
		return err
	}

	leaf, err := ic.forgeCert(hello.ServerName)
	if err != nil {
		return err
	}

	// Terminate the client's session with the forged identity.
	downCfg := &tls12.Config{Certificate: leaf, Stopwatch: ic.Stopwatch}
	downConn := tls12.ServerWithReceivedHello(tls12.NewRecordLayer(down), downCfg, helloRaw)

	// Open our own session to the real server.
	upCfg := &tls12.Config{}
	if ic.Upstream != nil {
		upCfg = &tls12.Config{}
		*upCfg = *ic.Upstream
	}
	if upCfg.ServerName == "" {
		upCfg.ServerName = hello.ServerName
	}
	if !ic.VerifyUpstream {
		upCfg.InsecureSkipVerify = true
	}
	upCfg.Stopwatch = ic.Stopwatch
	upConn := tls12.NewClientConn(up, upCfg)

	// Establish the upstream session first: if the real server cannot
	// be reached (or fails verification), the client's handshake must
	// not complete against the forged identity.
	if err := upConn.Handshake(); err != nil {
		return err
	}
	if err := downConn.Handshake(); err != nil {
		return err
	}

	var proc core.Processor
	if ic.NewProcessor != nil {
		proc = ic.NewProcessor()
	}

	errc := make(chan error, 2)
	go func() { errc <- relay(downConn, upConn, core.DirClientToServer, proc) }()
	go func() { errc <- relay(upConn, downConn, core.DirServerToClient, proc) }()
	err = <-errc
	down.Close()
	up.Close()
	<-errc
	if err == io.EOF {
		return nil
	}
	return err
}

// relay pumps plaintext from src to dst through the processor.
func relay(src, dst *tls12.Conn, dir core.Direction, proc core.Processor) error {
	buf := make([]byte, 16384)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			out := buf[:n]
			if proc != nil {
				var perr error
				out, perr = proc.Process(dir, out)
				if perr != nil {
					return perr
				}
			}
			if len(out) > 0 {
				if _, werr := dst.Write(out); werr != nil {
					return werr
				}
			}
		}
		if err != nil {
			if err == io.EOF {
				dst.Close()
			}
			return err
		}
	}
}
