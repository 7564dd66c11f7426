package tls12

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"errors"

	"repro/internal/clock"
	"repro/internal/secmem"
	"repro/internal/timing"
)

// Certificate is a leaf certificate chain plus its Ed25519 private key.
type Certificate struct {
	// Chain is the DER-encoded certificate chain, leaf first.
	Chain [][]byte
	// PrivateKey signs ServerKeyExchange messages.
	PrivateKey ed25519.PrivateKey
	// Leaf is the parsed leaf certificate (optional; parsed on demand).
	Leaf *x509.Certificate
}

// Wipe zeroizes the certificate's private key. An application wipes its
// Certificate when the identity is retired; the chain and leaf are
// public and stay readable.
func (cert *Certificate) Wipe() {
	if cert == nil {
		return
	}
	secmem.Wipe(cert.PrivateKey)
	cert.PrivateKey = nil
}

// SessionTicket is the client-side state needed to resume a session
// (RFC 5077). The server's state travels inside the opaque Ticket.
type SessionTicket struct {
	Ticket       []byte
	CipherSuite  uint16
	MasterSecret []byte
}

// Wipe zeroizes the resumption master secret. A client wipes a ticket
// when it will not be redeemed again (each redemption needs the master,
// so wiping is the application's retire-this-ticket signal).
func (st *SessionTicket) Wipe() {
	if st == nil {
		return
	}
	secmem.Wipe(st.MasterSecret)
	st.MasterSecret = nil
}

// TicketKeySource supplies rotating session-ticket encryption keys
// (STEKs). SealKey returns the key new tickets are sealed under;
// OpenKeys returns every key a received ticket may open under
// (typically the current generation plus a one-generation grace
// window). internal/hsfast.STEK is the standard implementation.
//
// A source with nothing to serve (a wiped STEK) returns the all-zero
// seal key and no open keys: a server never seals or opens a ticket
// under the all-zero key, which anyone could forge a ticket under.
type TicketKeySource interface {
	SealKey() [32]byte
	OpenKeys() [][32]byte
}

// TicketAEADSource is a TicketKeySource that also hands out each key
// generation's AES-256-GCM, built once per generation; a server uses
// those when its source has them, so a ticket costs no key expansion.
// SealAEAD returns nil, and OpenAEADs none, when the source serves
// nothing. internal/hsfast.STEK is one.
type TicketAEADSource interface {
	TicketKeySource
	SealAEAD() cipher.AEAD
	OpenAEADs() []cipher.AEAD
}

// KeyShareSource supplies ephemeral X25519 keys for handshakes, so a
// host can precompute them on idle workers (internal/hsfast
// .KeySharePool). public must equal priv.PublicKey().Bytes(); it is
// passed separately so a precomputed public point is not re-derived.
type KeyShareSource interface {
	X25519KeyShare() (priv *ecdh.PrivateKey, public []byte, err error)
}

// ChainCache memoizes certificate-chain verification verdicts. Do
// returns the cached verdict for key or runs verify (once across
// concurrent callers for the same key) and caches its success.
// internal/hsfast.VerifyCache is the standard implementation.
type ChainCache interface {
	Do(key [32]byte, verify func() error) (cached bool, err error)
}

// Config configures a Conn. A Config may be reused across connections.
// The zero value is not usable; at minimum CipherSuites defaults are
// applied by the connection.
type Config struct {
	// Clock tells the time for certificate checks and ticket lifetimes;
	// nil is the wall clock. mbTLS parties set their transport's.
	Clock clock.Clock

	// Certificate authenticates the server side of a handshake.
	Certificate *Certificate
	// RootCAs are the trust anchors for peer certificate verification.
	RootCAs *x509.CertPool
	// ServerName is the expected peer hostname (client side) and the
	// SNI value sent in the ClientHello.
	ServerName string
	// InsecureSkipVerify disables certificate verification. Used only
	// in tests and attack demonstrations.
	InsecureSkipVerify bool

	// CipherSuites restricts the offered/accepted suites; nil means
	// both supported AES-GCM suites. The paper's prototype supported
	// only AES-256-GCM — the legacy-interop experiment (§5.1)
	// reproduces that restriction through this knob.
	CipherSuites []uint16

	// EnableTickets makes a server issue session tickets and a client
	// request them. A server with EnableTickets needs TicketKeys; its
	// handshake fails before writing a byte without them.
	EnableTickets bool
	// TicketKeys supplies the rotating keys server-issued tickets are
	// sealed and opened under.
	TicketKeys TicketKeySource
	// SessionTicket, when set on a client, attempts an abbreviated
	// resumption handshake.
	SessionTicket *SessionTicket
	// OnNewTicket, when set on a client, receives tickets issued by
	// the server.
	OnNewTicket func(*SessionTicket)
	// HopTickets, when set on a client, holds resumption state for
	// named middlebox hops (mbTLS chain resumption): when a secondary
	// handshake's ServerHello names a resumed hop, the master secret
	// comes from the matching entry.
	HopTickets map[string]*SessionTicket
	// HopTicketName, when set on a server, identifies this party as a
	// named middlebox hop: ticket resumption reads the hop ticket with
	// this name from the ClientHello's MiddleboxSupport extension
	// (instead of the session_ticket extension) and the ServerHello
	// echoes the name when resuming.
	HopTicketName string

	// MiddleboxSupport, when set on a client, is attached to the
	// ClientHello to invite on-path middleboxes (mbTLS, paper §3.4).
	MiddleboxSupport *MiddleboxSupport

	// RequestAttestation makes a client require an SGXAttestation
	// message from the server; VerifyQuote must also be set.
	RequestAttestation bool
	// OfferAttestation puts the attestation-request extension in the
	// ClientHello without making it mandatory for this session. mbTLS
	// clients set it on the primary handshake so that discovered
	// middleboxes (whose secondary sessions reuse the primary
	// ClientHello) are invited to attest even when the origin server
	// does not (paper §3.4).
	OfferAttestation bool
	// VerifyQuote validates a received quote against the report data
	// this connection computed (the transcript binding, paper §3.4
	// "Secure Environment Attestation").
	VerifyQuote func(quote, reportData []byte) error
	// Quoter, when set on a server, produces an SGX quote over the
	// given 64-byte report data if the client requests attestation.
	Quoter func(reportData []byte) ([]byte, error)

	// KeyShares, when set, supplies precomputed ephemeral X25519 keys
	// for ServerKeyExchange/ClientKeyExchange; nil generates inline.
	KeyShares KeyShareSource
	// VerifyCache, when set on a client, memoizes certificate-chain
	// verification verdicts across connections (keyed by a hash of the
	// DER chain and the expected name).
	VerifyCache ChainCache

	// Stopwatch, when set, accumulates this connection's handshake
	// compute time, excluding time blocked on network reads (the
	// quantity reported by the paper's Figure 5).
	Stopwatch *timing.Stopwatch

	// LenientUnknownRecords makes a server skip mbTLS record types it
	// does not understand (Encapsulated, MiddleboxAnnouncement) instead
	// of failing the handshake. The paper (§3.4) observes legacy
	// stacks do one or the other; both behaviors are reproduced.
	LenientUnknownRecords bool
}

func (c *Config) cipherSuites() []uint16 {
	if c != nil && len(c.CipherSuites) > 0 {
		return c.CipherSuites
	}
	return []uint16{
		TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
	}
}

// keyShare returns an ephemeral X25519 key for this handshake, from
// the precompute pool when one is configured.
func (c *Config) keyShare() (*ecdh.PrivateKey, []byte, error) {
	if c.KeyShares != nil {
		return c.KeyShares.X25519KeyShare()
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	return priv, priv.PublicKey().Bytes(), nil
}

func (c *Config) supportsSuite(id uint16) bool {
	for _, s := range c.cipherSuites() {
		if s == id {
			return true
		}
	}
	return false
}

// errNoCertificate is returned when a server config lacks a certificate.
var errNoCertificate = errors.New("tls12: server config has no certificate")

// errNoTicketKeys is returned when a server config enables tickets
// without keys to seal them under.
var errNoTicketKeys = errors.New("tls12: server config enables tickets without TicketKeys")
