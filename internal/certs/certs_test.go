package certs

import (
	"crypto/x509"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestIssueAndVerify(t *testing.T) {
	ca, err := NewCA("test root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue("server.example", []string{"server.example", "alt.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Chain) != 2 {
		t.Fatalf("chain length = %d, want leaf+root", len(cert.Chain))
	}
	leaf, err := x509.ParseCertificate(cert.Chain[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"server.example", "alt.example"} {
		if _, err := leaf.Verify(x509.VerifyOptions{Roots: ca.Pool(), DNSName: name}); err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
	}
	if _, err := leaf.Verify(x509.VerifyOptions{Roots: ca.Pool(), DNSName: "other.example"}); err == nil {
		t.Fatal("verified for a name not in the certificate")
	}
}

func TestIssueExpired(t *testing.T) {
	ca, err := NewCA("test root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueExpired("old.example", []string{"old.example"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := x509.ParseCertificate(cert.Chain[0])
	_, err = leaf.Verify(x509.VerifyOptions{Roots: ca.Pool(), DNSName: "old.example", CurrentTime: time.Now()})
	if err == nil {
		t.Fatal("expired certificate verified")
	}
	var cie x509.CertificateInvalidError
	if !errorsAs(err, &cie) || cie.Reason != x509.Expired {
		t.Fatalf("error = %v, want expiry", err)
	}
}

func errorsAs(err error, target *x509.CertificateInvalidError) bool {
	cie, ok := err.(x509.CertificateInvalidError)
	if ok {
		*target = cie
	}
	return ok
}

func TestSelfSignedIsUntrusted(t *testing.T) {
	ca, err := NewCA("honest root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := SelfSigned("rogue.example", []string{"rogue.example"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := x509.ParseCertificate(cert.Chain[0])
	if _, err := leaf.Verify(x509.VerifyOptions{Roots: ca.Pool(), DNSName: "rogue.example"}); err == nil {
		t.Fatal("self-signed certificate verified against an unrelated root")
	}
}

func TestForgeMatchesName(t *testing.T) {
	interceptCA, err := NewCA("intercept root")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := interceptCA.Forge("victim.example")
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := x509.ParseCertificate(forged.Chain[0])
	if _, err := leaf.Verify(x509.VerifyOptions{Roots: interceptCA.Pool(), DNSName: "victim.example"}); err != nil {
		t.Fatalf("forged cert does not verify under its own root: %v", err)
	}
}

func TestUniqueSerials(t *testing.T) {
	ca, err := NewCA("test root")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		cert, err := ca.Issue("x.example", []string{"x.example"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := cert.Leaf.SerialNumber.String()
		if seen[s] {
			t.Fatalf("serial %s reused", s)
		}
		seen[s] = true
	}
}

func TestPEMRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ca, err := NewCA("pem root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue("server.example", []string{"server.example"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	certPath := filepath.Join(dir, "cert.pem")
	keyPath := filepath.Join(dir, "key.pem")
	if err := SaveCertPEM(cert, certPath, keyPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCertPEM(certPath, keyPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Chain) != len(cert.Chain) {
		t.Fatalf("chain length %d, want %d", len(loaded.Chain), len(cert.Chain))
	}
	if !loaded.PrivateKey.Equal(cert.PrivateKey) {
		t.Fatal("private key corrupted through PEM")
	}
	if loaded.Leaf.Subject.CommonName != "server.example" {
		t.Fatal("leaf not parsed")
	}

	rootPath := filepath.Join(dir, "root.pem")
	if err := ca.SaveRootPEM(rootPath); err != nil {
		t.Fatal(err)
	}
	pool, err := LoadPoolPEM(rootPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Leaf.Verify(x509.VerifyOptions{Roots: pool, DNSName: "server.example"}); err != nil {
		t.Fatalf("verification against reloaded pool failed: %v", err)
	}
}

func TestLoadPoolPEMRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.pem")
	if err := os.WriteFile(path, []byte("not a pem"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPoolPEM(path); err == nil {
		t.Fatal("garbage pool loaded")
	}
}
