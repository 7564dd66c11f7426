package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/certs"
	"repro/internal/clock"
	"repro/internal/enclave"
	"repro/internal/tls12"
	"repro/internal/wire"
)

// This file is the pluggable accountability layer: the per-session
// policy that lets an endpoint hold its middleboxes to account. The
// paper's mechanism (P3B) is SGX attestation, hard-wired until this
// refactor; mdTLS (PAPERS.md, arXiv 2306.03573) shows proxy signatures
// are a cheaper alternative. Both now live behind accountabilityMode:
//
//   - attest: middleboxes attest their enclave during the secondary
//     handshake; the endpoint verifies quotes and (optionally) demands
//     them. Wire behavior is byte-identical to the pre-refactor code.
//   - proxysig: after approval the endpoint mints an ephemeral
//     delegation key, signs one warrant per hop, and at close collects
//     evidence each middlebox signed over that warrant and digests of
//     the records it emitted.
//
// The mode is negotiated per session (and per side) through the
// MiddleboxSupport flags octet of whichever ClientHello starts each
// secondary handshake: the primary hello for client-side hops, the
// server's fresh secondary hello for server-side hops. Each endpoint
// audits its own side's hops, so a legacy peer is never affected.

// Accountability selects how an endpoint holds middleboxes to account.
type Accountability int

// Accountability modes. The zero value is the paper's attestation
// path, so existing configs are unchanged.
const (
	// AccountAttest is the enclave/attestation mode (paper §3.4
	// "Secure Environment Attestation").
	AccountAttest Accountability = iota
	// AccountProxySig is the mdTLS-style proxy-signature mode:
	// endpoint-signed delegation warrants, middlebox-signed evidence,
	// verified at close.
	AccountProxySig
)

// String names the mode as accepted by the daemons' -accountability
// flag.
func (a Accountability) String() string {
	if a == AccountProxySig {
		return "proxysig"
	}
	return "attest"
}

// ParseAccountability parses a daemon flag value.
func ParseAccountability(s string) (Accountability, error) {
	switch s {
	case "attest":
		return AccountAttest, nil
	case "proxysig":
		return AccountProxySig, nil
	}
	return 0, fmt.Errorf("core: unknown accountability mode %q", s)
}

// AccountabilityError reports a proxysig accountability failure the
// endpoint detected: a middlebox that returned no or unverifiable
// evidence, evidence echoing a different warrant than the one minted,
// or a hop the endpoint could not delegate to. It classifies as
// ClassIntegrity — the path's accountability chain is cryptographically
// broken, and retrying re-runs the same failure.
type AccountabilityError struct {
	// Hop names the middlebox the failure concerns.
	Hop string
	// Reason describes the failure.
	Reason string
	// Err is the underlying cause, when any.
	Err error
}

// Error implements the error interface.
func (e *AccountabilityError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: accountability failure at %q: %s: %v", e.Hop, e.Reason, e.Err)
	}
	return fmt.Sprintf("core: accountability failure at %q: %s", e.Hop, e.Reason)
}

// Unwrap exposes the underlying cause.
func (e *AccountabilityError) Unwrap() error { return e.Err }

// Delegation warrants are minted fresh per session; the validity
// window only needs to cover session establishment, with skew slack
// for middlebox clocks. Expiry is checked by the middlebox at receipt,
// not at close, so long-lived sessions are unaffected.
const (
	delegationSkew     = 5 * time.Minute
	delegationValidity = time.Hour
)

// PhaseEvidenceCollection is the close-time phase in which a proxysig
// endpoint collects signed evidence from its hops; a wedged hop
// surfaces as a HandshakeTimeoutError naming this phase.
const PhaseEvidenceCollection HandshakePhase = "evidence-collection"

// Accountability frames ride MBTLSKeyMaterial records on the
// secondary sessions, discriminated from key material by their leading
// uint16: KeyMaterial payloads begin with the TLS version (0x0303),
// these begin with a frame kind. No new record types, so legacy
// relays forward them like any other subchannel traffic.
const (
	acctFrameDelegation  uint16 = 0xAC01 // endpoint → middlebox: delegation warrant
	acctFrameAck         uint16 = 0xAC02 // middlebox → endpoint: warrant accepted
	acctFrameEvidenceReq uint16 = 0xAC03 // endpoint → middlebox: evidence request
	acctFrameEvidence    uint16 = 0xAC04 // middlebox → endpoint: signed evidence
)

func acctFrame(kind uint16, body []byte) []byte {
	b := wire.NewBuilder(make([]byte, 0, 4+len(body)))
	b.AddUint16(kind)
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(body) })
	return b.Bytes()
}

func parseAcctFrame(payload []byte) (uint16, []byte, error) {
	p := wire.NewParser(payload)
	var kind uint16
	var body []byte
	if !p.ReadUint16(&kind) || !p.ReadUint16Prefixed(&body) || !p.Empty() {
		return 0, nil, errors.New("core: malformed accountability frame")
	}
	return kind, body, nil
}

// accountabilityMode is the pluggable per-session accountability
// policy an endpoint runs. Implementations hook the three places the
// handshake state machines need to differ: primary-hello annotation
// (negotiation), secondary-handshake configuration (per-hop credential
// production/verification), and post-key-distribution credential
// establishment (whose audit state the Session then verifies at
// close).
type accountabilityMode interface {
	// kind identifies the mode for negotiation and metrics.
	kind() Accountability
	// annotatePrimary adjusts the client's primary-handshake config
	// (the hello that doubles as every client-side secondary hello).
	annotatePrimary(tcfg *tls12.Config)
	// configureSecondary adjusts the endpoint's secondary-handshake
	// template after secondaryClientConfig's common scrubbing.
	configureSecondary(cfg *tls12.Config)
	// checkHop validates one completed (possibly resumed) hop before
	// the application's Approve callback runs.
	checkHop(sum MiddleboxSummary) error
	// establishCredentials runs after key distribution, delivering
	// per-hop credentials over the retained secondary connections on
	// the endpoint's clock. It returns the audit state the session
	// settles at close, or nil when the mode needs none.
	establishCredentials(secs []secondaryResult, ct *ChainTicket, clk clock.Clock) (*sessionAudit, error)
}

// attestMode is the paper's enclave/attestation path, extracted from
// the previously hard-wired client/server logic with identical wire
// behavior.
type attestMode struct {
	require  bool
	verifier *enclave.Verifier
}

func (m *attestMode) kind() Accountability { return AccountAttest }

func (m *attestMode) annotatePrimary(tcfg *tls12.Config) {
	// Invite every discovered middlebox to attest, even when the
	// origin server does not (paper §3.4).
	tcfg.OfferAttestation = true
}

func (m *attestMode) configureSecondary(cfg *tls12.Config) {
	if m.require {
		cfg.RequestAttestation = true
	}
	if m.verifier != nil {
		// Verified whenever presented, demanded or not.
		cfg.VerifyQuote = m.verifier.VerifyQuote
	}
}

func (m *attestMode) checkHop(sum MiddleboxSummary) error {
	if m.require && !sum.Attested {
		return fmt.Errorf("core: middlebox %q did not attest", sum.Name)
	}
	return nil
}

func (m *attestMode) establishCredentials(secs []secondaryResult, _ *ChainTicket, _ clock.Clock) (*sessionAudit, error) {
	// Nothing reads an attest-mode secondary session past key
	// distribution: its secrets and pooled record buffers go now.
	for _, r := range secs {
		retire(r.conn)
	}
	return nil, nil
}

// proxySigMode is the mdTLS-style proxy-signature path.
type proxySigMode struct {
	// limit bounds close-time evidence collection (the resolved
	// HandshakeTimeout).
	limit time.Duration
}

func (m *proxySigMode) kind() Accountability { return AccountProxySig }

func (m *proxySigMode) annotatePrimary(tcfg *tls12.Config) {
	tcfg.MiddleboxSupport.ProxySig = true
}

func (m *proxySigMode) configureSecondary(cfg *tls12.Config) {
	// The server's client-role secondary hellos are built fresh, so
	// the negotiation flag must ride a minimal MiddleboxSupport
	// extension there. Client-side secondaries reuse the primary
	// hello and ignore this field.
	cfg.MiddleboxSupport = &tls12.MiddleboxSupport{ProxySig: true}
}

func (m *proxySigMode) checkHop(MiddleboxSummary) error { return nil }

func (m *proxySigMode) establishCredentials(secs []secondaryResult, ct *ChainTicket, clk clock.Clock) (*sessionAudit, error) {
	if len(secs) == 0 {
		return nil, nil
	}
	key, err := certs.NewDelegationKey(nil)
	if err != nil {
		return nil, err
	}
	audit := &sessionAudit{key: key, limit: m.limit}
	fail := func(err error) (*sessionAudit, error) {
		key.Wipe()
		return nil, err
	}
	now := clk.Now()
	for _, r := range secs {
		leaf, err := hopLeafKey(r.summary, ct)
		if err != nil {
			return fail(err)
		}
		var binding [32]byte
		if _, err := io.ReadFull(rand.Reader, binding[:]); err != nil {
			return fail(err)
		}
		deleg, err := key.SignDelegation(leaf, binding, now.Add(-delegationSkew), now.Add(delegationValidity))
		if err != nil {
			return fail(err)
		}
		if err := r.conn.WriteKeyMaterial(acctFrame(acctFrameDelegation, deleg)); err != nil {
			return fail(fmt.Errorf("core: delegation to %q: %w", r.summary.Name, err))
		}
		// The ack read is what surfaces a middlebox that rejected the
		// warrant (expired, wrong key): its fatal alert arrives here.
		ack, err := r.conn.ReadKeyMaterial()
		if err != nil {
			return fail(fmt.Errorf("core: delegation ack from %q: %w", r.summary.Name, err))
		}
		kind, _, err := parseAcctFrame(ack)
		if err != nil || kind != acctFrameAck {
			return fail(&AccountabilityError{Hop: r.summary.Name, Reason: "middlebox did not acknowledge delegation"})
		}
		audit.hops = append(audit.hops, hopAudit{
			name:       r.summary.Name,
			conn:       r.conn,
			leafPub:    leaf,
			delegation: deleg,
		})
	}
	return audit, nil
}

// hopLeafKey resolves the Ed25519 key a delegation authorizes: the
// middlebox's leaf certificate key on a full handshake, or the cached
// LeafPub from the chain ticket on a resumed hop (resumption carries
// no certificates; ticket possession proves the peer is the middlebox
// the key was recorded from).
func hopLeafKey(sum MiddleboxSummary, ct *ChainTicket) (ed25519.PublicKey, error) {
	if len(sum.Certificates) > 0 {
		if pk, ok := sum.Certificates[0].PublicKey.(ed25519.PublicKey); ok {
			return pk, nil
		}
		return nil, &AccountabilityError{Hop: sum.Name, Reason: "middlebox certificate key is not Ed25519"}
	}
	if h := ct.Hop(sum.Name); h != nil && len(h.LeafPub) == ed25519.PublicKeySize {
		return ed25519.PublicKey(h.LeafPub), nil
	}
	return nil, &AccountabilityError{Hop: sum.Name, Reason: "no middlebox key available for delegation"}
}

// hopLeafPub records the bytes of a hop's Ed25519 certificate key for
// a new chain ticket: from the verified leaf certificate on a full
// handshake, or carried forward from the redeemed ticket on a resumed
// hop. Nil when unavailable or not Ed25519 (the chain still resumes;
// only proxysig delegation needs the key).
func hopLeafPub(sum MiddleboxSummary, ct *ChainTicket) []byte {
	if len(sum.Certificates) > 0 {
		if pk, ok := sum.Certificates[0].PublicKey.(ed25519.PublicKey); ok {
			return append([]byte(nil), pk...)
		}
		return nil
	}
	if h := ct.Hop(sum.Name); h != nil && len(h.LeafPub) > 0 {
		return append([]byte(nil), h.LeafPub...)
	}
	return nil
}

// newAccountability resolves and validates an endpoint config's
// accountability fields, which ClientConfig and ServerConfig share.
func newAccountability(kind Accountability, requireAttestation bool, verifier *enclave.Verifier, timeout time.Duration) (accountabilityMode, error) {
	switch kind {
	case AccountAttest:
		return &attestMode{require: requireAttestation, verifier: verifier}, nil
	case AccountProxySig:
		if requireAttestation {
			return nil, errors.New("core: RequireMiddleboxAttestation conflicts with the proxysig accountability mode")
		}
		return &proxySigMode{limit: handshakeLimit(timeout)}, nil
	}
	return nil, fmt.Errorf("core: unknown accountability mode %d", kind)
}

// sessionAudit is a proxysig session's close-time obligation: the
// delegation key to wipe and, per hop, the retained secondary
// connection, the key the warrant authorizes, and the warrant bytes
// the evidence must echo.
type sessionAudit struct {
	key   *certs.DelegationKey
	limit time.Duration
	hops  []hopAudit
	done  bool
}

type hopAudit struct {
	name       string
	conn       *tls12.Conn
	leafPub    ed25519.PublicKey
	delegation []byte
}

// collectEvidence settles a proxysig session's audit: it requests
// signed evidence from every hop, verifies each middlebox's signature
// and that the evidence echoes the warrant this endpoint minted, and
// wipes the delegation key. Runs at most once, from Session.Close.
// The secondary connections live on mux pipes that carry no read
// deadlines, so a wedged hop is bounded by failing the mux — Close is
// tearing the session down anyway.
func (s *Session) collectEvidence() error {
	a := s.audit
	if a == nil || a.done {
		return nil
	}
	a.done = true
	defer a.key.Wipe()
	if a.limit > 0 {
		timeout := clock.Of(s.transport).AfterFunc(a.limit, func() {
			s.m.fail(&HandshakeTimeoutError{Phase: PhaseEvidenceCollection, Limit: a.limit})
		})
		defer timeout.Stop()
	}
	var firstErr error
	for i := range a.hops {
		if err := s.hopEvidence(&a.hops[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Session) hopEvidence(h *hopAudit) error {
	if err := h.conn.WriteKeyMaterial(acctFrame(acctFrameEvidenceReq, nil)); err != nil {
		return fmt.Errorf("core: evidence request to %q: %w", h.name, err)
	}
	raw, err := h.conn.ReadKeyMaterial()
	if err != nil {
		return fmt.Errorf("core: evidence from %q: %w", h.name, err)
	}
	kind, body, err := parseAcctFrame(raw)
	if err != nil || kind != acctFrameEvidence {
		return &AccountabilityError{Hop: h.name, Reason: "middlebox returned no evidence"}
	}
	ev, err := certs.VerifyEvidence(h.leafPub, body)
	if err != nil {
		return &AccountabilityError{Hop: h.name, Reason: "evidence signature invalid", Err: err}
	}
	if !certs.EvidenceMatchesDelegation(ev, h.delegation) {
		return &AccountabilityError{Hop: h.name, Reason: "evidence echoes a different delegation than this endpoint minted"}
	}
	return nil
}

// AccountabilityFaults injects adversarial proxysig behavior into a
// middlebox, for the fault-matrix suites: a middlebox that substitutes
// the delegation it echoes in evidence, or corrupts its evidence
// signature. Production configs leave this nil.
type AccountabilityFaults struct {
	// MutateDelegation rewrites the stored warrant bytes before the
	// middlebox signs evidence over them (an honest signature over a
	// substituted warrant).
	MutateDelegation func([]byte) []byte
	// MutateEvidence rewrites the signed evidence blob before it is
	// sent (a forged or corrupted signature).
	MutateEvidence func([]byte) []byte
}
