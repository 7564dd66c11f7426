package mbtls

import (
	"net"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
	"repro/internal/transport"
	"repro/internal/transport/tcpx"
)

// Protocol types re-exported from the implementation packages. The
// facade keeps downstream code on one import while the internal
// packages stay independently testable.
type (
	// Session is an established mbTLS session endpoint (an
	// io.ReadWriteCloser carrying application data).
	Session = core.Session
	// ClientConfig configures Dial.
	ClientConfig = core.ClientConfig
	// ServerConfig configures Accept.
	ServerConfig = core.ServerConfig
	// Middlebox is an on-path mbTLS middlebox.
	Middlebox = core.Middlebox
	// MiddleboxConfig configures NewMiddlebox.
	MiddleboxConfig = core.MiddleboxConfig
	// MiddleboxStats are a middlebox's cumulative counters.
	MiddleboxStats = core.MiddleboxStats
	// MiddleboxSummary describes a session middlebox to the approving
	// endpoint.
	MiddleboxSummary = core.MiddleboxSummary
	// Processor transforms application data at a middlebox.
	Processor = core.Processor
	// ProcessorFunc adapts a function to Processor.
	ProcessorFunc = core.ProcessorFunc
	// Direction is a data-plane flow direction.
	Direction = core.Direction
	// Mode selects client-side or server-side middlebox behavior.
	Mode = core.Mode
	// Accountability selects how endpoints hold middleboxes to account:
	// enclave attestation (the default) or mdTLS-style proxy signatures.
	Accountability = core.Accountability
	// AccountabilityError is a proxysig audit failure at session close.
	AccountabilityError = core.AccountabilityError
	// OverloadError is a session host's typed at-capacity rejection.
	OverloadError = core.OverloadError
	// DrainingError is a session host's typed shutting-down rejection.
	DrainingError = core.DrainingError

	// SessionHost is the shared per-connection lifecycle runtime:
	// bounded accept loop, session registry, graceful drain,
	// backpressure, and stats aggregation.
	SessionHost = sessionhost.Host
	// SessionHostConfig configures NewSessionHost.
	SessionHostConfig = sessionhost.Config
	// SessionHostMetrics snapshots a SessionHost.
	SessionHostMetrics = sessionhost.Metrics
	// SessionHandler runs one admitted connection.
	SessionHandler = sessionhost.Handler
	// SessionControl is a handler's interface back to the runtime.
	SessionControl = sessionhost.Control

	// RecordBufPool is a bounded record-buffer pool, shared between a
	// SessionHost and the middlebox it fronts.
	RecordBufPool = tls12.RecordBufPool

	// TLSConfig configures the underlying TLS 1.2 engine.
	TLSConfig = tls12.Config
	// Certificate is an Ed25519 certificate chain with its key.
	Certificate = tls12.Certificate
	// SessionTicket is client-side resumption state.
	SessionTicket = tls12.SessionTicket

	// ChainTicket is a whole session chain's resumption state: the
	// primary ticket plus one hop ticket per client-side middlebox.
	ChainTicket = core.ChainTicket
	// ChainHop is one middlebox's entry in a ChainTicket.
	ChainHop = core.ChainHop

	// Handshake fast-path resources (host-scoped; see internal/hsfast).
	// KeySharePool precomputes X25519 keyshares on idle workers; STEK
	// is a rotating session-ticket encryption key with a one-generation
	// grace window; VerifyCache memoizes certificate-chain and
	// quote-endorsement verification verdicts.
	KeySharePool = hsfast.KeySharePool
	STEK         = hsfast.STEK
	VerifyCache  = hsfast.VerifyCache

	// Transport abstracts how bytes move between nodes (netsim pipes
	// or real TCP sockets); see internal/transport for the Conn
	// contract both backends satisfy.
	Transport = transport.Transport
	// TCPTransport is the real-socket backend: plain kernel TCP
	// connections (NODELAY on, as Go sets it) with optional
	// SO_REUSEPORT listeners (several accept loops on one address).
	TCPTransport = tcpx.Transport
	// TCPTransportConfig configures NewTCPTransport.
	TCPTransportConfig = tcpx.Config

	// CA is an in-process certificate authority for provisioning
	// servers and middleboxes.
	CA = certs.CA

	// Attestation trust chain (simulated SGX).
	Authority   = enclave.Authority
	Platform    = enclave.Platform
	Enclave     = enclave.Enclave
	CodeImage   = enclave.CodeImage
	Measurement = enclave.Measurement
	Quote       = enclave.Quote
	Verifier    = enclave.Verifier
)

// Middlebox modes.
const (
	ClientSide = core.ClientSide
	ServerSide = core.ServerSide
)

// Accountability modes.
const (
	AccountAttest   = core.AccountAttest
	AccountProxySig = core.AccountProxySig
)

// ParseAccountability parses an accountability mode name ("attest" or
// "proxysig"), as accepted by the daemons' -accountability flag.
func ParseAccountability(s string) (Accountability, error) {
	return core.ParseAccountability(s)
}

// Data-plane directions.
const (
	DirClientToServer = core.DirClientToServer
	DirServerToClient = core.DirServerToClient
)

// Supported cipher suites.
const (
	TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 = tls12.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256
	TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384 = tls12.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384
)

// Dial establishes an mbTLS session as the client over transport,
// discovering on-path middleboxes during the handshake (no round trips
// added).
func Dial(transport net.Conn, cfg *ClientConfig) (*Session, error) {
	return core.Dial(transport, cfg)
}

// DialAddr connects to addr over the real-socket TCP transport and
// establishes an mbTLS session.
func DialAddr(addr string, cfg *ClientConfig) (*Session, error) {
	conn, err := tcpx.Default().Dial(addr)
	if err != nil {
		return nil, err
	}
	sess, err := core.Dial(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return sess, nil
}

// Accept establishes an mbTLS session as the server over an accepted
// transport connection.
func Accept(transport net.Conn, cfg *ServerConfig) (*Session, error) {
	return core.Accept(transport, cfg)
}

// NewMiddlebox builds an mbTLS middlebox.
func NewMiddlebox(cfg MiddleboxConfig) (*Middlebox, error) {
	return core.NewMiddlebox(cfg)
}

// NewSessionHost builds a session-host runtime. Every accept loop in
// the repo — the proxy and server binaries, the bench harness, the
// concurrent-session tests — admits connections through one of these.
func NewSessionHost(cfg SessionHostConfig) (*SessionHost, error) {
	return sessionhost.New(cfg)
}

// NewRecordBufPool builds a bounded record-buffer pool retaining at
// most maxRetained buffers.
func NewRecordBufPool(maxRetained int) *RecordBufPool {
	return tls12.NewRecordBufPool(maxRetained)
}

// NewKeySharePool builds a host-scoped X25519 precompute pool holding
// up to size keyshares, refilled by workers background goroutines
// (0 defaults both). Close it when the host shuts down.
func NewKeySharePool(size, workers int) *KeySharePool {
	return hsfast.NewKeySharePool(size, workers)
}

// NewKeySharePoolForShards sizes a keyshare pool for n refill workers
// (daemons pass GOMAXPROCS): one worker and a fixed slab of capacity
// each, so precompute throughput scales with the cores. The name
// renames with hsfast's when benchmark/ reopens.
func NewKeySharePoolForShards(n int) *KeySharePool {
	return hsfast.NewKeySharePoolForShards(n)
}

// NewSTEK builds a rotating session-ticket encryption key. A zero
// interval disables time-based rotation (rotate manually); otherwise
// each interval retires the previous generation after one interval of
// grace, so outstanding tickets survive exactly one rotation.
func NewSTEK(interval time.Duration) (*STEK, error) {
	return hsfast.NewSTEK(interval, nil)
}

// NewVerifyCache builds a verification cache holding up to max
// verdicts for ttl. Plug it into TLSConfig.VerifyCache (certificate
// chains) or Verifier.Cache (quote endorsements).
func NewVerifyCache(max int, ttl time.Duration) *VerifyCache {
	return hsfast.NewVerifyCache(max, ttl, nil)
}

// NewMiddleboxHandler adapts a Middlebox to a SessionHost handler:
// each admitted connection is relayed toward the next hop from dial.
func NewMiddleboxHandler(mb *Middlebox, dial func() (net.Conn, error)) SessionHandler {
	return sessionhost.NewMiddleboxHandler(mb, dial)
}

// NewServerHandler adapts an mbTLS server to a SessionHost handler:
// each admitted connection is accepted and handed to serve.
func NewServerHandler(cfg *ServerConfig, serve func(*Session) error) SessionHandler {
	return sessionhost.NewServerHandler(cfg, serve)
}

// NewTCPTransport builds the real-socket TCP transport. Daemons use it
// for listeners and next-hop dials; pair Config.ReusePort with
// SessionHost.ServeListeners and ListenShards for several
// kernel-spread accept loops.
func NewTCPTransport(cfg TCPTransportConfig) *TCPTransport {
	return tcpx.New(cfg)
}

// NewCA creates a self-signed certificate authority, typically one per
// deployment domain (origin PKI, middlebox-service-provider PKI).
func NewCA(commonName string) (*CA, error) {
	return certs.NewCA(commonName)
}

// NewAuthority creates an attestation authority (plays Intel's role in
// the SGX trust chain).
func NewAuthority() (*Authority, error) {
	return enclave.NewAuthority()
}
