// Package enclave simulates the two Intel SGX features mbTLS consumes
// (paper §3.3, "An Aside: Trusted Computing and SGX"):
//
//   - Secure execution environments: code and secrets inside an enclave
//     are invisible to the machine owner (the middlebox infrastructure
//     provider, MIP). The simulation enforces this structurally: enclave
//     memory is only reachable through Enter, and the Vault abstraction
//     lets adversary tests "dump" exactly the memory a malicious MIP
//     could read.
//
//   - Remote attestation: an enclave can produce a Quote — a signed
//     statement binding its code measurement to caller-chosen report
//     data. mbTLS puts a handshake transcript hash in the report data so
//     quotes are fresh per handshake (§3.4).
//
// The quoting chain models SGX's: an Authority (playing Intel) endorses
// per-Platform quoting keys; quotes chain platform → authority.
//
// The cost of crossing the enclave boundary (ecalls/ocalls) is an
// explicit, tunable knob with transition counters, so the Figure 7
// throughput experiment exercises the same boundary-crossing code path
// the paper measured on real hardware.
package enclave

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/secmem"
	"repro/internal/wire"
)

// MeasurementLen is the length of an enclave code measurement.
const MeasurementLen = 32

// ReportDataLen is the length of the caller-supplied report data bound
// into a quote (matches sgx_report_data_t).
const ReportDataLen = 64

// Measurement identifies the initial code and configuration of an
// enclave (SGX's MRENCLAVE).
type Measurement [MeasurementLen]byte

// String abbreviates the measurement for logs.
func (m Measurement) String() string { return fmt.Sprintf("mrenclave:%x", m[:6]) }

// CodeImage describes the software loaded into an enclave. Its
// measurement covers name, version, and configuration, reproducing the
// paper's "Apache v2.4.25 with only strong TLS cipher suites enabled"
// notion of code identity (P3B).
type CodeImage struct {
	Name    string
	Version string
	Config  string
}

// Measurement returns the code image's measurement.
func (ci CodeImage) Measurement() Measurement {
	h := sha256.New()
	for _, s := range []string{ci.Name, ci.Version, ci.Config} {
		var lenb [4]byte
		lenb[0] = byte(len(s) >> 24)
		lenb[1] = byte(len(s) >> 16)
		lenb[2] = byte(len(s) >> 8)
		lenb[3] = byte(len(s))
		h.Write(lenb[:])
		h.Write([]byte(s))
	}
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// Authority is the root of the attestation trust chain (plays Intel's
// attestation service). Verifiers hold its public key.
type Authority struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewAuthority creates an attestation authority with a fresh key.
func NewAuthority() (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Authority{pub: pub, priv: priv}, nil
}

// PublicKey returns the authority's verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// Wipe zeroizes the authority's signing key. It endorses no further
// platforms afterward; already-issued endorsements stay verifiable.
func (a *Authority) Wipe() {
	secmem.Wipe(a.priv)
	a.priv = nil
}

// Platform is one SGX-capable machine with an authority-endorsed
// quoting key (plays the quoting enclave).
type Platform struct {
	authorityPub ed25519.PublicKey
	quotePub     ed25519.PublicKey
	quotePriv    ed25519.PrivateKey
	endorsement  []byte // authority signature over quotePub

	// boundaryCost is the simulated cost of one enclave transition.
	boundaryCost atomic.Int64 // nanoseconds
}

// NewPlatform provisions a platform under the authority.
func (a *Authority) NewPlatform() (*Platform, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Platform{
		authorityPub: a.pub,
		quotePub:     pub,
		quotePriv:    priv,
		endorsement:  ed25519.Sign(a.priv, pub),
	}, nil
}

// SetBoundaryCost sets the simulated per-transition (ecall or ocall)
// cost for enclaves on this platform. Zero disables the cost model.
func (p *Platform) SetBoundaryCost(d time.Duration) {
	p.boundaryCost.Store(int64(d))
}

// Wipe zeroizes the platform's quoting key, as when a platform is
// decommissioned. Enclaves on it can no longer produce quotes.
func (p *Platform) Wipe() {
	secmem.Wipe(p.quotePriv)
	p.quotePriv = nil
}

// Enclave is a secure execution environment on a platform. All state
// placed in the enclave's memory is reachable only from code invoked
// through Enter, never from the host.
type Enclave struct {
	platform    *Platform
	measurement Measurement

	mu  sync.Mutex
	mem map[string]any

	transitions atomic.Int64
}

// CreateEnclave loads a code image into a new enclave. The measurement
// is fixed at creation, as on real SGX.
func (p *Platform) CreateEnclave(image CodeImage) *Enclave {
	return &Enclave{
		platform:    p,
		measurement: image.Measurement(),
		mem:         make(map[string]any),
	}
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Transitions reports the number of boundary crossings so far (each
// Enter counts the entry and the exit, like an ecall+return).
func (e *Enclave) Transitions() int64 { return e.transitions.Load() }

// spin burns approximately d of CPU to model the cost of flushing and
// re-entering the protected execution context. A sleep would be wrong:
// the paper's Figure 7 is about CPU overhead competing with interrupt
// handling, not idle waiting.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := clock.Real{}.Now().Add(d)
	for (clock.Real{}).Now().Before(deadline) {
	}
}

// Enter runs f inside the enclave, paying the boundary-crossing cost on
// entry and exit and incrementing the transition counter. Like real SGX
// (which admits multiple concurrent enclave threads), Enter does not
// serialize callers; only the Memory map operations are synchronized.
func (e *Enclave) Enter(f func(mem Memory)) {
	cost := time.Duration(e.platform.boundaryCost.Load())
	e.transitions.Add(2)
	spin(cost)
	f(Memory{e: e})
	spin(cost)
}

// Memory is a handle to enclave-private memory, only valid inside
// Enter.
type Memory struct {
	e *Enclave
}

// Put stores a value in enclave memory.
func (m Memory) Put(key string, v any) {
	m.e.mu.Lock()
	m.e.mem[key] = v
	m.e.mu.Unlock()
}

// Get retrieves a value from enclave memory.
func (m Memory) Get(key string) any {
	m.e.mu.Lock()
	defer m.e.mu.Unlock()
	return m.e.mem[key]
}

// Delete removes a value from enclave memory.
func (m Memory) Delete(key string) {
	m.e.mu.Lock()
	delete(m.e.mem, key)
	m.e.mu.Unlock()
}

// Quote produces an attestation over the enclave's measurement and the
// given report data. Only code inside the enclave can request a quote,
// mirroring SGX's EREPORT flow.
func (m Memory) Quote(reportData []byte) (*Quote, error) {
	if len(reportData) != ReportDataLen {
		return nil, fmt.Errorf("enclave: report data must be %d bytes, got %d", ReportDataLen, len(reportData))
	}
	e := m.e
	body := quoteBody(e.measurement, reportData)
	return &Quote{
		Measurement: e.measurement,
		ReportData:  append([]byte(nil), reportData...),
		PlatformKey: append(ed25519.PublicKey(nil), e.platform.quotePub...),
		Endorsement: append([]byte(nil), e.platform.endorsement...),
		Signature:   ed25519.Sign(e.platform.quotePriv, body),
	}, nil
}

// Quote is a simulated SGX quote.
type Quote struct {
	Measurement Measurement
	ReportData  []byte
	PlatformKey ed25519.PublicKey
	Endorsement []byte // authority signature over PlatformKey
	Signature   []byte // platform signature over quoteBody
}

func quoteBody(m Measurement, reportData []byte) []byte {
	b := make([]byte, 0, MeasurementLen+ReportDataLen)
	b = append(b, m[:]...)
	b = append(b, reportData...)
	return b
}

// Marshal encodes the quote for transport in an SGXAttestation
// handshake message.
func (q *Quote) Marshal() []byte {
	b := wire.NewBuilder(nil)
	b.AddBytes(q.Measurement[:])
	b.AddBytes(q.ReportData)
	b.AddUint8Prefixed(func(b *wire.Builder) { b.AddBytes(q.PlatformKey) })
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(q.Endorsement) })
	b.AddUint16Prefixed(func(b *wire.Builder) { b.AddBytes(q.Signature) })
	return b.Bytes()
}

// ParseQuote decodes a quote.
func ParseQuote(data []byte) (*Quote, error) {
	p := wire.NewParser(data)
	var q Quote
	var pk, endorsement, sig []byte
	if !p.CopyBytes(q.Measurement[:]) {
		return nil, errors.New("enclave: malformed quote")
	}
	q.ReportData = make([]byte, ReportDataLen)
	if !p.CopyBytes(q.ReportData) ||
		!p.ReadUint8Prefixed(&pk) ||
		!p.ReadUint16Prefixed(&endorsement) ||
		!p.ReadUint16Prefixed(&sig) {
		return nil, errors.New("enclave: malformed quote")
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	q.PlatformKey = append(ed25519.PublicKey(nil), pk...)
	q.Endorsement = append([]byte(nil), endorsement...)
	q.Signature = append([]byte(nil), sig...)
	return &q, nil
}

// verifyEndorsement checks the platform link of the chain: the
// authority endorsed this platform key. The verdict depends only on
// (authority, platform key, endorsement), so it is safe to memoize
// across handshakes.
func (q *Quote) verifyEndorsement(authority ed25519.PublicKey) error {
	if len(q.PlatformKey) != ed25519.PublicKeySize {
		return errors.New("enclave: bad platform key length")
	}
	if !ed25519.Verify(authority, q.PlatformKey, q.Endorsement) {
		return errors.New("enclave: platform key not endorsed by authority")
	}
	return nil
}

// verifyBinding checks the per-handshake half: the platform signed this
// quote body, and the body binds this handshake's report data. Never
// cached — it is what makes a quote fresh rather than replayed.
func (q *Quote) verifyBinding(reportData []byte) error {
	if !ed25519.Verify(q.PlatformKey, quoteBody(q.Measurement, q.ReportData), q.Signature) {
		return errors.New("enclave: invalid quote signature")
	}
	if len(reportData) != ReportDataLen || !constantTimeEqual(q.ReportData, reportData) {
		return errors.New("enclave: report data mismatch (stale or replayed quote)")
	}
	return nil
}

func constantTimeEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

// QuoteCache memoizes endorsement-verification verdicts across
// handshakes (hsfast.VerifyCache satisfies it). Do runs verify on a
// miss and returns the memoized error on a hit.
type QuoteCache interface {
	Do(key [32]byte, verify func() error) (cached bool, err error)
}

// Verifier is an attestation policy: an authority trust anchor plus a
// set of acceptable code measurements. It plugs into
// tls12.Config.VerifyQuote.
type Verifier struct {
	Authority ed25519.PublicKey
	// Allowed lists acceptable measurements; empty means any
	// measurement from a genuine platform (identity is then checked by
	// certificate only, P3A without P3B).
	Allowed []Measurement
	// Cache, when set, memoizes the endorsement half of quote
	// verification, keyed by (authority, platform key, endorsement).
	// The quote-body signature and report-data binding are still
	// verified on every handshake — a cache hit never lets a stale or
	// replayed quote through, it only skips re-verifying that a
	// platform key the authority already endorsed is endorsed.
	Cache QuoteCache
}

// endorsementKey hashes the cached verdict's full input. Each variable
// field is length-framed so no two (authority, key, endorsement)
// triples collide.
func endorsementKey(authority ed25519.PublicKey, q *Quote) [32]byte {
	h := sha256.New()
	var frame [4]byte
	for _, field := range [][]byte{authority, q.PlatformKey, q.Endorsement} {
		binary.BigEndian.PutUint32(frame[:], uint32(len(field)))
		h.Write(frame[:])
		h.Write(field)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// VerifyQuote implements the tls12 attestation hook.
func (v *Verifier) VerifyQuote(quoteBytes, reportData []byte) error {
	q, err := ParseQuote(quoteBytes)
	if err != nil {
		return err
	}
	if v.Cache != nil {
		_, err = v.Cache.Do(endorsementKey(v.Authority, q), func() error {
			return q.verifyEndorsement(v.Authority)
		})
	} else {
		err = q.verifyEndorsement(v.Authority)
	}
	if err != nil {
		return err
	}
	if err := q.verifyBinding(reportData); err != nil {
		return err
	}
	if len(v.Allowed) == 0 {
		return nil
	}
	for _, m := range v.Allowed {
		if m == q.Measurement {
			return nil
		}
	}
	return fmt.Errorf("enclave: measurement %s not in policy", q.Measurement)
}
