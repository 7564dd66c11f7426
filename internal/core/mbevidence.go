package core

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"

	"repro/internal/certs"
	"repro/internal/enclave"
	"repro/internal/tls12"
)

// mbAccountability is the middlebox half of accountabilityMode
// (DESIGN.md §13): what a middlebox does for the mode the hello it
// answers negotiated. attest provides the quoter; proxysig receives the
// warrant, digests what the relay reseals, and signs evidence over both.
type mbAccountability interface {
	// configure adjusts the secondary handshake's config.
	configure(cfg *tls12.Config)
	// receiveDelegation runs after key material, before the data plane
	// installs.
	receiveDelegation(conn *tls12.Conn) error
	// noteResealed folds a committed job's resealed output, in wire
	// order; the relay's commit calls it.
	noteResealed(dir Direction, out []byte, records int)
	// serveEvidence answers the endpoint on the live secondary session
	// until teardown.
	serveEvidence(conn *tls12.Conn)
}

// newMbAccountability negotiates a session's mode from the hello that
// carries it — once per placement: the primary ClientHello client-side,
// the server's fresh secondary hello server-side. It returns nil when
// that hello asks for the other mode than the configured one: the
// middlebox refuses the secondary handshake (accountability_mismatch),
// never silently downgrades.
func (mb *Middlebox) newMbAccountability(s *mbSession, hello *tls12.ClientHello) mbAccountability {
	proxySig := hello != nil && hello.MiddleboxSupport != nil && hello.MiddleboxSupport.ProxySig
	if proxySig != (mb.cfg.Accountability == AccountProxySig) {
		return nil
	}
	if !proxySig {
		return mbAttest{mb.cfg.Enclave}
	}
	mb.proxySig.Add(1)
	return &mbProxySig{s: s, c2s: sha256.New(), s2c: sha256.New()}
}

// mbAttest is attest mode at the middlebox: with an enclave, the
// secondary handshake quotes it.
type mbAttest struct{ e *enclave.Enclave }

func (m mbAttest) configure(cfg *tls12.Config) {
	if m.e == nil {
		return
	}
	cfg.Quoter = func(reportData []byte) (quote []byte, err error) {
		m.e.Enter(func(mem enclave.Memory) {
			var q *enclave.Quote
			q, err = mem.Quote(reportData)
			if err == nil {
				quote = q.Marshal()
			}
		})
		return quote, err
	}
}

func (mbAttest) receiveDelegation(*tls12.Conn) error { return nil }
func (mbAttest) noteResealed(Direction, []byte, int) {}
func (mbAttest) serveEvidence(*tls12.Conn)           {}

// mbProxySig is proxysig mode at the middlebox. mu guards the evidence
// accumulators: the stored warrant, per-direction running digests of
// resealed output, and record counts.
type mbProxySig struct {
	s                      *mbSession
	mu                     sync.Mutex
	delegation             []byte
	c2s, s2c               hash.Hash
	c2sRecords, s2cRecords uint64
}

func (m *mbProxySig) configure(*tls12.Config) {}

// receiveDelegation reads and validates the endpoint's delegation
// warrant: well-formed, self-signed, addressed to this middlebox's
// certificate key, and within its validity window on the session's
// clock. A valid warrant is kept for the evidence the session signs and
// acknowledged; an invalid one is refused with a descriptive fatal
// alert.
func (m *mbProxySig) receiveDelegation(conn *tls12.Conn) error {
	s := m.s
	s.hw.enter(PhaseDelegation)
	raw, err := conn.ReadKeyMaterial()
	if err != nil {
		return fmt.Errorf("core: delegation: %w", err)
	}
	kind, body, err := parseAcctFrame(raw)
	if err != nil || kind != acctFrameDelegation {
		conn.SendAlert(tls12.AlertBadCertificate)
		return errors.New("core: expected a delegation warrant after key material")
	}
	d, err := certs.ParseDelegation(body)
	if err != nil {
		conn.SendAlert(tls12.AlertBadCertificate)
		return fmt.Errorf("core: delegation: %w", err)
	}
	own, _ := s.mb.cfg.Certificate.PrivateKey.Public().(ed25519.PublicKey)
	if !d.Authorized.Equal(own) {
		conn.SendAlert(tls12.AlertBadCertificate)
		return errors.New("core: delegation authorizes a different key")
	}
	if err := d.ValidAt(s.clock.Now()); err != nil {
		conn.SendAlert(tls12.AlertCertificateExpired)
		return fmt.Errorf("core: delegation: %w", err)
	}
	deleg := append([]byte(nil), body...)
	if f := s.mb.cfg.AccountabilityFaults; f != nil && f.MutateDelegation != nil {
		deleg = f.MutateDelegation(deleg)
	}
	m.mu.Lock()
	m.delegation = deleg
	m.mu.Unlock()
	if err := conn.WriteKeyMaterial(acctFrame(acctFrameAck, nil)); err != nil {
		return fmt.Errorf("core: delegation ack: %w", err)
	}
	return nil
}

func (m *mbProxySig) noteResealed(dir Direction, out []byte, records int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dir == DirClientToServer {
		m.c2s.Write(out)
		m.c2sRecords += uint64(records)
	} else {
		m.s2c.Write(out)
		m.s2cRecords += uint64(records)
	}
}

// serveEvidence answers evidence requests on the retained secondary
// session until the session tears down (which fails the subchannel
// pipe and errors the read).
func (m *mbProxySig) serveEvidence(conn *tls12.Conn) {
	for {
		raw, err := conn.ReadKeyMaterial()
		if err != nil {
			return
		}
		kind, _, err := parseAcctFrame(raw)
		if err != nil || kind != acctFrameEvidenceReq {
			continue
		}
		blob, err := m.signEvidence()
		if err != nil {
			conn.SendAlert(tls12.AlertInternalError)
			return
		}
		// Counted once signed, before the write: the endpoint's Close
		// returns as soon as it has read the evidence, and a reader of
		// Stats right after must already see it.
		m.s.mb.evidenceSigned.Add(1)
		if err := conn.WriteKeyMaterial(acctFrame(acctFrameEvidence, blob)); err != nil {
			return
		}
	}
}

// signEvidence snapshots the accumulators and signs them with the
// middlebox certificate key.
func (m *mbProxySig) signEvidence() ([]byte, error) {
	ev := &certs.Evidence{}
	m.mu.Lock()
	ev.Delegation = append([]byte(nil), m.delegation...)
	copy(ev.C2SDigest[:], m.c2s.Sum(nil))
	copy(ev.S2CDigest[:], m.s2c.Sum(nil))
	ev.C2SRecords = m.c2sRecords
	ev.S2CRecords = m.s2cRecords
	m.mu.Unlock()
	cfg := &m.s.mb.cfg
	blob, err := certs.SignEvidence(cfg.Certificate.PrivateKey, ev)
	if err != nil {
		return nil, err
	}
	if f := cfg.AccountabilityFaults; f != nil && f.MutateEvidence != nil {
		blob = f.MutateEvidence(blob)
	}
	return blob, nil
}
