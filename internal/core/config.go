// Package core implements mbTLS (Middlebox TLS), the protocol from
// "And Then There Were More: Secure Communication for More Than Two
// Parties" (CoNEXT 2017): TLS sessions that application-layer
// middleboxes join explicitly, with in-band discovery, per-hop keys for
// path integrity, and SGX-based protection of middleboxes running on
// untrusted infrastructure.
//
// The three entry points mirror the paper's roles: Dial (client),
// Accept (server), and Middlebox (an on-path relay). Clients and
// servers interoperate with legacy tls12 endpoints (property P5): a
// session needs only one upgraded endpoint for that endpoint's
// middleboxes to participate.
package core

import (
	"crypto/x509"
	"time"

	"repro/internal/clock"
	"repro/internal/enclave"
	"repro/internal/tls12"
)

// Processor transforms application data crossing a middlebox. Process
// receives each plaintext chunk traveling in the given direction and
// returns the bytes to forward (which may be empty to withhold output,
// or larger than the input — the relay refragments into records).
// An instance serves one session. It is called from two goroutines,
// one per direction: calls for one direction never overlap and arrive
// in stream order, calls for opposite directions run concurrently, so
// state the two directions share must be locked.
//
// The returned slice is read only until the next Process call for the
// same direction: the data plane seals it into outbound records before
// it calls Process again in that direction. A Processor may therefore
// return the same buffer, refilled, from every call (mbapps'
// transformers do), or return chunk itself.
type Processor interface {
	Process(dir Direction, chunk []byte) ([]byte, error)
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(Direction, []byte) ([]byte, error)

// Process implements Processor.
func (f ProcessorFunc) Process(dir Direction, chunk []byte) ([]byte, error) {
	return f(dir, chunk)
}

// MiddleboxSummary describes one middlebox that joined a session, as
// presented to the approving endpoint (paper §3.5 "Trust").
type MiddleboxSummary struct {
	// Subchannel is the mbTLS subchannel the middlebox used.
	Subchannel uint8
	// Name is the middlebox certificate's common name (the MSP
	// identity, property P3A).
	Name string
	// Certificates is the middlebox's verified chain.
	Certificates []*x509.Certificate
	// Attested reports whether the secondary handshake included a
	// verified SGX attestation (property P3B).
	Attested bool
	// Measurement is the attested code measurement (zero if not
	// attested).
	Measurement enclave.Measurement
}

// ClientConfig configures an mbTLS client endpoint.
type ClientConfig struct {
	// TLS configures the primary (end-to-end) handshake: server
	// verification, cipher suites, tickets. Required.
	TLS *tls12.Config
	// KnownMiddleboxes lists middlebox addresses known a priori; they
	// are advertised in the MiddleboxSupport extension. The caller is
	// responsible for routing the connection through the first of
	// them (paper §3.4: the client opens its TCP connection to the
	// middlebox).
	KnownMiddleboxes []string
	// MiddleboxTLS is the template config for secondary sessions with
	// middleboxes (trust roots for MSP certificates). If nil, TLS is
	// used with the ServerName check dropped, since middlebox
	// certificates name the MSP, not the origin server.
	MiddleboxTLS *tls12.Config
	// RequireMiddleboxAttestation demands that every middlebox
	// terminate its secondary session inside an attested enclave
	// (properties P1A/P2/P3B for outsourced middleboxes).
	RequireMiddleboxAttestation bool
	// MiddleboxVerifier validates middlebox quotes. Required when
	// RequireMiddleboxAttestation is set.
	MiddleboxVerifier *enclave.Verifier
	// Approve is consulted for each middlebox after certificate (and
	// attestation) verification; returning false aborts the session.
	// Nil approves all verified middleboxes.
	Approve func(MiddleboxSummary) bool
	// Accountability selects how this endpoint holds its middleboxes
	// to account: AccountAttest (the default, the paper's SGX
	// attestation path) or AccountProxySig (mdTLS-style delegation
	// warrants and close-time signed evidence). See accountability.go.
	Accountability Accountability
	// NeighborKeys selects neighbor-negotiated hop keys instead of
	// endpoint-distributed ones (§4.2's state-poisoning mitigation;
	// see internal/core/neighbor.go). Requires an mbTLS server and
	// client-side middleboxes only. Incompatible with AccountProxySig.
	NeighborKeys bool
	// ChainTicket resumes a previously established session chain: the
	// primary session and every client-side middlebox hop the ticket
	// covers skip ECDHE, signatures, and verification. Hops whose
	// tickets have gone stale fall back to full handshakes
	// individually. TLS.SessionTicket, when also set, takes precedence
	// for the primary.
	ChainTicket *ChainTicket
	// OnNewChainTicket receives the chain ticket assembled from this
	// session's NewSessionTicket messages (primary plus per-hop), for
	// resuming the whole chain later. Setting it implies
	// TLS.EnableTickets. The callback runs before Dial returns; the
	// ticket's master secrets are live key material — hold them
	// accordingly and Wipe retired tickets.
	OnNewChainTicket func(*ChainTicket)
	// HandshakeTimeout bounds each phase of session establishment
	// (primary handshake, secondary handshakes, key distribution).
	// Zero applies DefaultHandshakeTimeout; negative disables the
	// deadlines. On expiry Dial fails with a HandshakeTimeoutError
	// naming the phase.
	HandshakeTimeout time.Duration
}

// ServerConfig configures an mbTLS server endpoint.
type ServerConfig struct {
	// TLS configures the primary handshake; Certificate is required.
	TLS *tls12.Config
	// AcceptMiddleboxes enables processing of MiddleboxAnnouncements.
	// When false the server behaves like a strict legacy endpoint.
	AcceptMiddleboxes bool
	// MiddleboxTLS is the template config for the client-role
	// secondary handshakes the server runs toward announced
	// middleboxes (trust roots for MSP certificates). If nil, TLS is
	// used with the ServerName check dropped.
	MiddleboxTLS *tls12.Config
	// RequireMiddleboxAttestation and MiddleboxVerifier mirror the
	// client-side fields.
	RequireMiddleboxAttestation bool
	MiddleboxVerifier           *enclave.Verifier
	// Accountability mirrors the client-side field for the server's own
	// (server-side) middleboxes.
	Accountability Accountability
	// Approve is consulted for each announced middlebox; nil approves
	// all verified middleboxes.
	Approve func(MiddleboxSummary) bool
	// HandshakeTimeout mirrors ClientConfig.HandshakeTimeout for
	// Accept.
	HandshakeTimeout time.Duration
}

// secondaryClientConfig derives the tls12 config for a secondary
// session in which this endpoint plays the client role. The
// accountability mode contributes its per-hop credential hooks
// (attestation request/verification, or the proxysig negotiation
// flag) after the common scrubbing.
func secondaryClientConfig(primary, template *tls12.Config, acct accountabilityMode, clk clock.Clock) *tls12.Config {
	var cfg tls12.Config
	if template != nil {
		cfg = *template
	} else if primary != nil {
		cfg = *primary
		// Middlebox certificates name the MSP, not the origin server.
		cfg.ServerName = ""
	}
	cfg.MiddleboxSupport = nil
	cfg.SessionTicket = nil
	// Hop resumption state is injected per-chain by the caller; the
	// primary's ticket callback must not fire for hop tickets.
	cfg.HopTickets = nil
	cfg.OnNewTicket = nil
	cfg.Clock = clk
	acct.configureSecondary(&cfg)
	return &cfg
}

// summarize builds a MiddleboxSummary from a completed secondary
// session.
func summarize(sub uint8, state tls12.ConnectionState) MiddleboxSummary {
	s := MiddleboxSummary{Subchannel: sub}
	if len(state.PeerCertificates) > 0 {
		s.Certificates = state.PeerCertificates
		s.Name = state.PeerCertificates[0].Subject.CommonName
	}
	if len(state.AttestationQuote) > 0 {
		if q, err := enclave.ParseQuote(state.AttestationQuote); err == nil {
			s.Attested = true
			s.Measurement = q.Measurement
		}
	}
	return s
}
