// Package chain builds the one object every experiment and every
// Table 1 property is measured on — client → client-side middleboxes →
// server-side middleboxes → server (paper §3.4, Figure 4) — so that no
// experiment, attack harness, benchmark or test suite wires its own.
// It owns four things: the PKI fixture (PKI); bare wiring with tracked
// Handle goroutines (Wire, Link); the one concurrent Dial/Accept
// (Establish); and the daemons' hosted topology on netsim or loopback
// TCP (Hosted, Daemons, Fabric). It hides issuance, wiring, goroutine
// tracking, establishment and teardown — not configuration: callers
// pass the core, tls12 and sessionhost config structs they already
// know, and what varies between chains arrives in those and in the Link.
package chain

import (
	"sync"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/tls12"
)

// The names the fixture's certificates carry.
const (
	OriginName    = "origin.example"
	MiddleboxName = "mb.example" // a MiddleboxConfig with no Name gets this one
)

// PKI is the trust fixture of one chain (or of many that share it): a
// root, the origin's certificate, per-name middlebox certificates, and
// the attestation side — enclaves come from Platform.CreateEnclave,
// policies from Verifier.
type PKI struct {
	CA        *certs.CA
	Origin    *tls12.Certificate
	Authority *enclave.Authority
	Platform  *enclave.Platform

	mu  sync.Mutex
	mbs map[string]*tls12.Certificate
}

// NewPKI mints the fixture.
func NewPKI() (*PKI, error) {
	ca, err := certs.NewCA("chain root")
	if err != nil {
		return nil, err
	}
	p := &PKI{CA: ca, mbs: make(map[string]*tls12.Certificate)}
	if p.Origin, err = ca.Issue(OriginName, []string{OriginName}, nil); err != nil {
		return nil, err
	}
	if p.Authority, err = enclave.NewAuthority(); err != nil {
		return nil, err
	}
	if p.Platform, err = p.Authority.NewPlatform(); err != nil {
		return nil, err
	}
	return p, nil
}

// MiddleboxCert returns the certificate of the middlebox called name,
// issuing it on first use.
func (p *PKI) MiddleboxCert(name string) (*tls12.Certificate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mbs[name] == nil {
		cert, err := p.CA.Issue(name, []string{name}, nil)
		if err != nil {
			return nil, err
		}
		p.mbs[name] = cert
	}
	return p.mbs[name], nil
}

// Middlebox builds cfg's middlebox, filling in a nil Certificate with
// the one issued to cfg.Name.
func (p *PKI) Middlebox(cfg core.MiddleboxConfig) (_ *core.Middlebox, err error) {
	if cfg.Certificate == nil {
		name := cfg.Name
		if name == "" {
			name = MiddleboxName
		}
		if cfg.Certificate, err = p.MiddleboxCert(name); err != nil {
			return nil, err
		}
	}
	return core.NewMiddlebox(cfg)
}

// Verifier returns an attestation policy anchored at Authority that
// admits exactly the given images (any genuine enclave when none).
func (p *PKI) Verifier(images ...enclave.CodeImage) *enclave.Verifier {
	v := &enclave.Verifier{Authority: p.Authority.PublicKey()}
	for _, image := range images {
		v.Allowed = append(v.Allowed, image.Measurement())
	}
	return v
}

// ClientConfig returns a fresh base client config: trust the root,
// expect the origin. Callers set whatever else their chain needs.
func (p *PKI) ClientConfig() *core.ClientConfig {
	return &core.ClientConfig{TLS: &tls12.Config{RootCAs: p.CA.Pool(), ServerName: OriginName}}
}

// ServerConfig returns a fresh base server config: the origin's
// certificate, announcements from middleboxes under the root accepted.
func (p *PKI) ServerConfig() *core.ServerConfig {
	return &core.ServerConfig{
		TLS:               &tls12.Config{Certificate: p.Origin},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: p.CA.Pool()},
	}
}
