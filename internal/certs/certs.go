// Package certs provides a small in-process certificate authority used
// to provision servers and middleboxes with Ed25519 certificate chains.
// It also fabricates the broken certificates (expired, untrusted,
// wrong-host) needed by the paper's legacy-interoperability experiment
// (§5.1) and by the split-TLS baseline's forged leaf certificates.
package certs

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/secmem"
	"repro/internal/tls12"
)

// CA is a certificate authority with an Ed25519 signing key.
type CA struct {
	Cert *x509.Certificate
	Key  ed25519.PrivateKey
	// serial is incremented per issued certificate; CAs issue
	// concurrently (the experiment harnesses provision in parallel).
	serial atomic.Int64
}

// Wipe zeroizes the CA's signing key, retiring the authority. Issued
// certificates stay verifiable; no further certificates can be signed.
func (ca *CA) Wipe() {
	if ca == nil {
		return
	}
	secmem.Wipe(ca.Key)
	ca.Key = nil
}

// NewCA creates a self-signed root CA with the given common name.
func NewCA(commonName string) (*CA, error) {
	ca := &CA{}
	ca.serial.Store(1)
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"mbTLS repro"}},
		NotBefore:             clock.Real{}.Now().Add(-time.Hour),
		NotAfter:              clock.Real{}.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, priv)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	ca.Cert = cert
	ca.Key = priv
	return ca, nil
}

// Pool returns a CertPool containing only this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.Cert)
	return pool
}

// IssueOptions controls leaf issuance.
type IssueOptions struct {
	// NotBefore/NotAfter override the default validity window (now-1h
	// to now+1y) when non-zero. Setting both in the past fabricates an
	// expired certificate.
	NotBefore, NotAfter time.Time
}

// Issue creates a leaf certificate for the given DNS names, returning a
// tls12.Certificate ready for a server or middlebox config.
func (ca *CA) Issue(commonName string, dnsNames []string, opts *IssueOptions) (*tls12.Certificate, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return ca.issueFor(commonName, dnsNames, opts, pub, priv)
}

func (ca *CA) issueFor(commonName string, dnsNames []string, opts *IssueOptions,
	pub ed25519.PublicKey, priv ed25519.PrivateKey) (*tls12.Certificate, error) {
	serial := ca.serial.Add(1)
	notBefore := clock.Real{}.Now().Add(-time.Hour)
	notAfter := clock.Real{}.Now().Add(365 * 24 * time.Hour)
	if opts != nil {
		if !opts.NotBefore.IsZero() {
			notBefore = opts.NotBefore
		}
		if !opts.NotAfter.IsZero() {
			notAfter = opts.NotAfter
		}
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: commonName, Organization: []string{"mbTLS repro"}},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		DNSNames:     dnsNames,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, pub, ca.Key)
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &tls12.Certificate{
		Chain:      [][]byte{der, ca.Cert.Raw},
		PrivateKey: priv,
		Leaf:       leaf,
	}, nil
}

// Forge issues a certificate for names using this CA — exactly what a
// split-TLS interception middlebox does with its custom root (paper
// §2.2, "TLS Interception with Custom Root Certificates").
func (ca *CA) Forge(serverName string) (*tls12.Certificate, error) {
	return ca.Issue(serverName, []string{serverName}, nil)
}

// IssueExpired fabricates a certificate whose validity window ended in
// the past, for the legacy-interop failure population.
func (ca *CA) IssueExpired(commonName string, dnsNames []string) (*tls12.Certificate, error) {
	return ca.Issue(commonName, dnsNames, &IssueOptions{
		NotBefore: clock.Real{}.Now().Add(-48 * time.Hour),
		NotAfter:  clock.Real{}.Now().Add(-24 * time.Hour),
	})
}

// SelfSigned creates a certificate signed by a throwaway CA that no
// client trusts (an "invalid certificate" in the §5.1 sense).
func SelfSigned(commonName string, dnsNames []string) (*tls12.Certificate, error) {
	rogue, err := NewCA("rogue " + commonName)
	if err != nil {
		return nil, err
	}
	cert, err := rogue.Issue(commonName, dnsNames, nil)
	if err != nil {
		return nil, err
	}
	// Drop the rogue CA from the chain so verification cannot succeed
	// even permissively.
	cert.Chain = cert.Chain[:1]
	return cert, nil
}
